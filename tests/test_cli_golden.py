"""Golden CLI output: sha256 of each JSON envelope minus its wall_time_ms line,
and the exact text of the ball cap refusals.

The digests pin the exact bytes the CLI writes, so a refactor that is
meant to keep behaviour the same must leave every one of them unchanged.
A deliberate output change updates the digest in the same commit.
"""

import hashlib

import pytest

from treeperm.cli import main

GOLDEN = [
    ("criteria check --d 5 --F Alt(5) --Fprime Sym(5)", 0, "ceaf50bc3ebecc567bd17f84fec1530916f61817c3f3db8f67a9e7299ef988a9"),
    ("criteria survey --d 4", 0, "e12a12a4b1ddd14619bfd6f72f7141fa667643ef8161b7f8122108c4c6bcee1a"),
    ("criteria survey --d 5 --transitive-only", 0, "32978c7e048ed0ae4ea2afd8f9f6e8499a40416a7996298015262755354b67e1"),
    ("wreath build --base Sym(3) --depth 3", 0, "35b39e55ef0bb1e2ce0da9299b00fe481912bd7e3fa84bf4b815d12e642a8fdf"),
    ("wreath build --base Sym(3) --depth 3 --sylow 3", 0, "c38b4798cc673c08c77214b731b5ce5d9d373857fe3437b95b89e683be07ef0d"),
    ("wreath build --base Alt(4) --depth 2 --sylow 2", 0, "6db77dc6bb779ac6a2bcbddf34e8495151051cc670cc1b4f1c2faeb23eba8cc9"),
    ("wreath build --base Sym(2) --depth 3 --square", 0, "755765f08fd503b42a528ce69d972684370523489b7236be7848bb23f70cbf99"),
    ("tree ball --d 3 --radius 2", 0, "ccea35dbc259da0be88a4bd71512e83fd508fc27157874f7e170134e6397d80a"),
    ("ball group --d 3 --radius 2 --F Sym(3)", 0, "df56b10d56cd63979d55f4ddb3977b4ff80488a20569dca161fda3a1c39262eb"),
    ("ball group --d 3 --radius 2 --F Sym(3) --center edge", 0, "aa56cdb7686a1dd4cdd5385c5200544a5577bde63584c8d9f5811ea592b40507"),
    ("ball group --d 4 --radius 2 --F Dih(4) --center edge", 0, "cf37641d7e481b264c2c322d72e60df99650302956049863c4924b16b1b76cb3"),
    ("ball group --d 5 --radius 1 --F Sym(5) --center edge", 0, "f47fc5d6f3b9475d9ec839cb6a8ad2ad42d4e6ad8d2fd65d740349fed18b8f0d"),
    ("tate verify --group Sym(5) --p 2", 0, "98ffa73958e292ae6f041df989520d1533b575a9b03089df870a77bb614e6564"),
    ("tate verify --group Alt(5) --p 5", 0, "65a5ee3d44a735f29f1fbafa330c812faedbd42ac2ed39b4cdd01fa00ec70516"),
    ("series op --group Sym(5) --kind sylow --p 2", 0, "d3b310c5ab9eeade7d2281084a36e62dd2de7feae22b814cee3bc0e6e33920e7"),
    ("series op --group Sym(6) --kind residual --p 2", 0, "7db27e5dba3cfcc278ab9de6d56f51f25b3051a95b2dda1e5c9a409618cdf2e0"),
    ("series op --group Sym(4) --kind core --p 2", 0, "2883a1c54d0a6f780916d48b8c93d932d3e157b9b3df01c9292937bc998e63a8"),
    ("series op --group Dih(6) --kind core --pi 2,3", 0, "8fcb15b40b1fb37dbf3aea52bc465273791f120492e27a0b6bc58988f9b55b6e"),
    ("lattice rist --tower Klein4:2 --subset 1,2.1", 0, "703bb23f7fe364974ff2bb526600243ecc5805214d03edc139bf510a0bf42101"),
    ("lattice sweep --tower Sym(2):3", 0, "a9788052aa0a6063cdf90f4e831d16a234b77b1e9cc79552ca99af86c60bddb2"),
    ("lattice sweep --tower Klein4:2", 0, "2459c254e6e9f3e9009fbda279c47e1904b5bcc5aedb0d11f1d13c6aa7836566"),
    ("lattice sweep --tower Klein4:3 --max-pairs 14", 0, "a0b4bb546e4cdce35b161a1e9f2b3d5f988bad91714c3429ef6d465bb0649289"),
    ("lattice rist --tower Sym(4):2 --subset 1.1,1.2,1.3", 0, "3f9770b78371eedfdefc60997b6006e5007feecdbb5219cabec1c7556b0d2da5"),
    ("lattice rist --tower Alt(4):2 --subset 1.1,1.2,1.3,2", 0, "7288e33dfca82588146c7726c0a449d631fa05722d6268708a15c5a713abd26a"),
    ("lattice sweep --tower Sym(3):2", 0, "7c7cffb82f0dc32d71df5d0de444b4201b03a46e85e37644fc5451251e8d48f8"),
    ("criteria survey --d 5", 0, "064c7dcd98bab9d3aeb444d1f6f3f06003064cd757340e0567d284ea42fbce18"),
    ("tate verify --group Dih(6) --p 2", 0, "855b95379009344348de1120ff72010fed96cd6e86ff0ad52b48f5ee0e9e6ef2"),
    ("tate verify --group Sym(4) --p 2", 0, "8135ec8a66c29e6f6a61f6a0a298b08c32107ca2533e4a66ca0e1dccaaf8eac9"),
    # degree 1 and 2: the smallest groups the kernel sees
    ("tate verify --group Cyc(1) --p 2", 0, "64ed61df62a6bb87f802bfa3e621a3d04e4dbf1e22a2736750e6bde5ce4627dc"),
    ("series op --group Triv(1) --kind sylow --p 2", 0, "a124e673ed017be69924566ef911f3782b9cb4907725a0da30f003899818b2bc"),
    ("wreath build --base Sym(2) --depth 1", 0, "a27db9b80e409961b6f904add3f94a46ea96ae7f691e40a5f39c23fd896d5a10"),
    # every report kind that serializes through dataclasses.asdict
    ('ball defects --d 3 --radius 2 --F Alt(3) --Fprime Sym(3) '
     '--element {"vertex_images":[0,1,2,3,5,4,6,7,8,9]}', 0,
     "7ab92d41667887abf4ca1b891d46cd0339c4eb73e0fe83a619cc2dca7665d0c1"),
    ('ball defects --d 3 --radius 2 --F Cyc(3) --Fprime Alt(3) '
     '--element {"vertex_images":[0,1,2,3,5,4,6,7,8,9]}', 0,
     "8937664bc0b54890a5bba9a48da139be268192a532b6971cf7f62037bf8a26da"),
    ("criteria check --d 4 --F Sym(4) --Fprime Alt(4)", 2, "51d9c881589dde24aa9d497550a2f7f3c1dbb59a89a253bbb22657db53607380"),
    ("criteria survey --d 3", 0, "a6376ebc3fdf93de4d257b8965122ae924ea4dda8071485904f275f76dcbee5a"),
    ("criteria survey --d 4 --format table", 0, "440419faea1b68fc93ef3dca033697020d6e0eed459cf23a494b8473e47bf827"),
    ("series op --group Sym(5) --kind residual --p 3", 0, "bdaa0bd665c7237e5aec5bd59acf7047a846e2d6fa6bb84e357ee649d517a5d5"),
    # tower chains: a 125-leaf tower, a 256-leaf tower, a square, a Sylow pair
    ("wreath build --base Dih(5) --depth 3", 0, "6e94cffc010ee8f03d7c8ab348bd481c2ab11b523cb5f0e777994c799d7b51ff"),
    ("wreath build --base Klein4 --depth 4", 0, "87fd6c8d17a700c6cd99784d43d958194d3341f3d56b76fd5047f01a7fa2f990"),
    ("wreath build --base Sym(2) --depth 5 --square", 0, "730ab2dc78621d51347f7943fcd814f8e64bfb30a9a371e55a33204918e8d3bb"),
    ("wreath build --base Dih(4) --depth 3 --sylow 2", 0, "c3fbe01d8d27369a1a395646a982fb4f1811417ecbd517a5adcf12d66517b54b"),
    # tower edge shapes: arity 1, a trivial base, depth 0
    ("wreath build --base Sym(1) --depth 3", 0, "8789c15ab01c8dc95612bc0743e0e621f275a00b1783edc8f80a134501bcc95a"),
    ("wreath build --base Triv(3) --depth 2", 0, "40d2b988ed9eaf461adc65e3c6ac6f042652768a1cf40f0300fd84f5f595ed7d"),
    ("wreath build --base Sym(3) --depth 0 --square", 0, "a5cae8e774ed0e6fa2c4d06608502822d71c4d775d427da51692b920c3bd2725"),
]


@pytest.mark.parametrize("command, exit_code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_cli_output_digest(capsys, command, exit_code, digest):
    assert main(command.split()) == exit_code
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith('  "wall_time_ms": '))
    assert hashlib.sha256(kept.encode()).hexdigest() == digest


BALL_R2 = "ball group --d 3 --radius 2 --F Sym(3)"
BALL_R3 = "ball group --d 3 --radius 3 --F Sym(3)"
REFUSALS = [
    (BALL_R2 + " --ball-order-cap 10",
     "error: ball group order cap exceeded: requested 48, cap 10 "
     "(raise with --ball-order-cap (or reduce the radius))\n"),
    (BALL_R2 + " --center edge --ball-order-cap 10",
     "error: ball group order cap exceeded: requested 128, cap 10 "
     "(raise with --ball-order-cap (or reduce the radius))\n"),
    (BALL_R3 + " --ball-vertex-cap 10",
     "error: ball vertices cap exceeded: requested 22, cap 10 "
     "(raise with --ball-vertex-cap (or reduce the radius))\n"),
    (BALL_R3 + " --center edge --ball-vertex-cap 10",
     "error: ball vertices cap exceeded: requested 30, cap 10 "
     "(raise with --ball-vertex-cap (or reduce the radius))\n"),
]


@pytest.mark.parametrize("command, stderr", REFUSALS, ids=[c for c, _ in REFUSALS])
def test_cap_refusal_text(capsys, command, stderr):
    assert main(command.split()) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", stderr)


# lattice sweep at the element cap: Alt(9) and Sym(9) towers sweep their
# first pairs, and rist's panel scan refuses a base larger than the cap
ELEMENT_CAP = ("error: element enumeration cap exceeded: requested {}, cap {} "
               "(raise with --element-cap)\n")
LATTICE_CAP_EDGES = [
    ("lattice sweep --tower Alt(9):1 --max-pairs 2", 0, ""),
    ("lattice sweep --tower Sym(9):1 --max-pairs 2", 0, ""),
    ("lattice sweep --tower Alt(9):1 --max-pairs 3", 1, ELEMENT_CAP.format(100001, 100000)),
    ("lattice sweep --tower Sym(3):2 --element-cap 5", 1, ELEMENT_CAP.format(6, 5)),
    ("lattice sweep --tower Klein4:3 --max-pairs 14 --element-cap 3", 1,
     ELEMENT_CAP.format(4, 3)),
    # intersections are counted, not enumerated: only the base and the
    # rist panels meet the cap
    ("lattice sweep --tower Sym(3):2 --element-cap 10", 0, ""),
    ("lattice sweep --tower Klein4:2 --element-cap 20", 0, ""),
    ("lattice sweep --tower Sym(2):3 --element-cap 8", 0, ""),
    ("lattice sweep --tower Klein4:3 --max-pairs 14 --element-cap 100", 0, ""),
]


@pytest.mark.parametrize("command, exit_code, stderr", LATTICE_CAP_EDGES,
                         ids=[c for c, _, _ in LATTICE_CAP_EDGES])
def test_lattice_sweep_element_cap(capsys, command, exit_code, stderr):
    assert main(command.split()) == exit_code
    assert capsys.readouterr().err == stderr
