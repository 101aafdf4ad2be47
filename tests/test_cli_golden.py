"""Golden CLI output: sha256 of each JSON envelope minus its wall_time_ms line,
and the exact text of the ball cap refusals.

The digests pin the exact bytes the CLI writes, so a refactor that is
meant to keep behaviour the same must leave every one of them unchanged.
A deliberate output change updates the digest in the same commit.
"""

import hashlib
import json

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
    ("ball group --d 3 --radius 2 --F Sym(3)", 0, "b6cf1deac87dd7387dba585e6e4e235198b1d001389d61519fa1b3355f7c955c"),
    ("ball group --d 3 --radius 2 --F Sym(3) --center edge", 0, "d295fe6c6521631d1109249c6df849d06b694f748e0dd07f90e102babd394ed0"),
    ("ball group --d 4 --radius 2 --F Dih(4) --center edge", 0, "3d0f3ed87d0792455963dc2b02b09acbe5625d3975ad9195241c89f49b78678d"),
    ("ball group --d 5 --radius 1 --F Sym(5) --center edge", 0, "d500df15dc60b3123115858fe57277b6a5af46eae4c9ef48d124c4c0348e7c17"),
    ("tate verify --group Sym(5) --p 2", 0, "98ffa73958e292ae6f041df989520d1533b575a9b03089df870a77bb614e6564"),
    ("tate verify --group Alt(5) --p 5", 0, "65a5ee3d44a735f29f1fbafa330c812faedbd42ac2ed39b4cdd01fa00ec70516"),
    ("series op --group Sym(5) --kind sylow --p 2", 0, "597cd4acb33062a70b60cfa1a11aaadfe9f09b2a12ee01831728fbdd5381bc41"),
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
    # the sweep with the most centralizer work, recorded on the element scan
    ("lattice sweep --tower Sym(2):4", 0, "fe086ded9d9bf7fb1f1a1dc8b4de48afbc1f0e867b81e7413e99080b9cab96b0"),
    # |W_2(Sym(3))| = 1296: at that cap every centralizer is decided; one
    # below it the pair check's tower-order guard leaves them all null
    ("lattice sweep --tower Sym(3):2 --element-cap 1296", 0, "8b41fe2f05ddad6c46bfd839487b9d7f7876741c360a69ae7df35c070c65e3fb"),
    ("lattice sweep --tower Sym(3):2 --element-cap 1295", 0, "8dd7f5621b1085c3d555586ae7fcbc69485a5ea894ebf76c96fcad39661bc430"),
    ("criteria survey --d 5", 0, "064c7dcd98bab9d3aeb444d1f6f3f06003064cd757340e0567d284ea42fbce18"),
    ("tate verify --group Dih(6) --p 2", 0, "855b95379009344348de1120ff72010fed96cd6e86ff0ad52b48f5ee0e9e6ef2"),
    ("tate verify --group Sym(4) --p 2", 0, "8135ec8a66c29e6f6a61f6a0a298b08c32107ca2533e4a66ca0e1dccaaf8eac9"),
    # degree 1 and 2: the smallest groups the kernel sees
    ("tate verify --group Cyc(1) --p 2", 0, "64ed61df62a6bb87f802bfa3e621a3d04e4dbf1e22a2736750e6bde5ce4627dc"),
    ("series op --group Triv(1) --kind sylow --p 2", 0, "a124e673ed017be69924566ef911f3782b9cb4907725a0da30f003899818b2bc"),
    ("wreath build --base Sym(2) --depth 1", 0, "a27db9b80e409961b6f904add3f94a46ea96ae7f691e40a5f39c23fd896d5a10"),
    # every report kind that prints through cli.emit's dataclass hook
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
    # every other ball group of the benchmark's balls workload, then radius 0
    # and a trivial local group at both centers
    ("ball group --d 3 --radius 3 --F Cyc(3)", 0, "f38e1699e3272b72437082725cd4976a50c6fb54e0978bb86fb5b26ccead7639"),
    ("ball group --d 3 --radius 3 --F Cyc(3) --center edge", 0, "32c339b0671e26554837b29da3516e07b11fcbb7bd3caca58ea24982f45e08b9"),
    ("ball group --d 4 --radius 2 --F Alt(4)", 0, "c02d4decefe2f34b175928bd5b12ac4c4443570016e4f4fff359d2721699ef4e"),
    ("ball group --d 4 --radius 2 --F Dih(4)", 0, "98a921b1d83016c89199c75e29e5c5fdd298e78821542f240729ac6200722923"),
    ("ball group --d 4 --radius 2 --F Cyc(4)", 0, "5064477f9ed2707cce4c01222424d98719529fcadcd99a6da617ae6154223b4e"),
    ("ball group --d 4 --radius 3 --F Klein4", 0, "8b1071ff728488d88081a3fcda86b91b6a9173faba93a23a6e8cb72952212ea2"),
    ("ball group --d 4 --radius 2 --F Klein4 --center edge", 0, "bd4a3f926479afb5eaced075f3977c1ad8007c35968f9e365d2b07a945eeede5"),
    ("ball group --d 5 --radius 2 --F Dih(5)", 0, "5cba4de4d12121572d0ebcf69a8bba24a4c7f399ea8decb5973bf498e21a3ec4"),
    ("ball group --d 5 --radius 2 --F Cyc(5)", 0, "6d80645ea4d5af47a11bbd43b72b9515d9e6ff8c732534755724d4e1ccc918bd"),
    ("ball group --d 5 --radius 1 --F Sym(5)", 0, "dad68e50d76cc19cb6593660c440ff5426faa84702a575e6a382f5209f673f61"),
    ("ball group --d 3 --radius 3 --F Sym(3)", 0, "79e63616bd305892e3c0a8a96d858c9826da77905fbb7731f9adfadb68a67f55"),
    ("ball group --d 5 --radius 2 --F Dih(5) --center edge", 0, "623d0f336247681422ce1f3d39e62534f415cb4c69c37cf6b49a195585d8a0b1"),
    ("ball group --d 4 --radius 2 --F Sym(4)", 0, "e7ff2de37a1053b5d547879d4458ecb5ad430c1ca5f1c079cf82739182a0d716"),
    ("ball group --d 4 --radius 2 --F Alt(4) --center edge", 0, "d34ff6866f7905c4f4613aa280bcd5aec5ed11747c85f02edfac60bc08997e34"),
    ("ball group --d 5 --radius 2 --F F20", 0, "f5f7f53879e254731dc8bd1b516bc365f2dd16fb2daee4414f02cfa6ee717902"),
    ("ball group --d 3 --radius 3 --F Sym(3) --center edge", 0, "d81138f7b99057fbeffffe1af44de714a1f615d8410b37c7756f46da248e1944"),
    ("ball group --d 3 --radius 0 --F Sym(3)", 0, "622a29c5ec6d2db939a4b67442322ab8713beda54027b19fabd3330f83aa1a8d"),
    ("ball group --d 3 --radius 0 --F Sym(3) --center edge", 0, "6d2247c51e28fecfe303f68e2fc75d346c51948553daee8f54b21331f8186669"),
    ("ball group --d 3 --radius 2 --F Triv(3)", 0, "622a29c5ec6d2db939a4b67442322ab8713beda54027b19fabd3330f83aa1a8d"),
    ("ball group --d 3 --radius 2 --F Triv(3) --center edge", 0, "48e6f87786c3d370cc7861b619a5123b4703db9c0f46878a6c58ebbcb832f8ba"),
    # subgroup classes of Sym(6) (transitive rows), a Sylow subgroup of
    # Sym(7) and a Tate check at an odd prime
    ("criteria survey --d 6 --transitive-only", 0, "8994bbe9fb1440ffe0a7b57b7f26fc8f265202961fa61d4327f97864f6d7716a"),
    ("series op --group Sym(7) --kind sylow --p 3", 0, "9ded015ea34e3a35cdd7a2b96ec3becb156dfc3267fed37f0570f076a7af52bb"),
    ("tate verify --group Sym(5) --p 3", 0, "8744772e4e7d0e3ef19bc935a4b419006500a1bfe3e763846edc6416fe4a713b"),
    # Sylow subgroups of Sym in closed form: Sym(8) at p = 3 and Sym(9) at
    # p = 2 after one point stabilizer, Sym(10) at p = 2 on all ten points
    ("series op --group Sym(8) --kind sylow --p 3", 0, "2bd9ec2d5a1973ad3b17d0c92018a8475e4eb9794e6d34e45582170f7d4282c3"),
    ("series op --group Sym(9) --kind sylow --p 2", 0, "2b8af6385d3ea5349d150dd53afca2ff6cbbb7375e00d6159775cef3c3763925"),
    ("series op --group Sym(10) --kind sylow --p 2", 0, "df2e31d1d08d88964e7aab8a471dafc12cbfac8fb7af080eb7f287ab69bb5492"),
    # O_2(Sym(9)) = 1 from a Sylow 2-subgroup's 128 elements; Sym(9) itself
    # is past the element cap
    ("series op --group Sym(9) --kind core --p 2", 0, "d44dc2ccce793b190912361425e4bdf54cd883fde11822043e9cbb3f99a0ab00"),
    # criteria past the element cap: eta is read off |F| and F's orbits, and
    # the results equal the graft-count eta's under --element-cap 2000000
    ("criteria check --d 9 --F Sym(9) --Fprime Sym(9)", 0, "b1c7198c679f56ab8c3763bff3d7322b07301f119fb763f69b8345b7b291da4c"),
    ("criteria check --d 10 --F Alt(10) --Fprime Sym(10)", 0, "ca5d9d4de38babab7e3f6ab94a0d57f7323051274ee069db3a38441f568b870a"),
]


@pytest.mark.parametrize("command, exit_code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_cli_output_digest(capsys, command, exit_code, digest):
    assert main(command.split()) == exit_code
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith('  "wall_time_ms": '))
    assert hashlib.sha256(kept.encode()).hexdigest() == digest


def test_sym9_sylow_runs_under_the_element_cap(capsys):
    # Sym(9)_0 is Sym of the points 2..9, so no element is listed
    assert main("series op --group Sym(9) --kind sylow --p 2 --element-cap 0".split()) == 0
    subgroup = json.loads(capsys.readouterr().out)["result"]["subgroup"]
    assert subgroup["order"] == 128
    assert subgroup["generators"] == ["(2 3)", "(2 4)(3 5)", "(2 6)(3 7)(4 8)(5 9)"]


# Sym(5) x (Sym(4) wr Sym(2)), of order 138 240: the orbit of 1 has odd
# length 5, so the scan runs over the stabilizer of 1, of order 27 648
SYM5_BY_SYM4_WR_SYM2 = ("degree: 13\ngen: (1 2)\ngen: (1 2 3 4 5)\ngen: (6 7)\n"
                        "gen: (6 7 8 9)\ngen: (6 10)(7 11)(8 12)(9 13)")


def test_stabilizer_scan_runs_under_the_element_cap(capsys):
    assert main(["series", "op", "--group", SYM5_BY_SYM4_WR_SYM2,
                 "--kind", "sylow", "--p", "2"]) == 0
    subgroup = json.loads(capsys.readouterr().out)["result"]["subgroup"]
    assert subgroup["order"] == 1024
    # what the scan over the whole group prints under --element-cap 200000
    assert subgroup["generators"] == ["(6 10 7 11 8 12 9 13)", "(10 12)(11 13)",
                                      "(10 11 12 13)", "(7 9)(11 13)", "(11 13)", "(4 5)",
                                      "(2 3)", "(2 4)(3 5)"]


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
    # the default cap refuses before any generator or leaf is built
    ("ball group --d 3 --radius 4 --F Sym(3)",
     "error: ball group order cap exceeded: requested 12582912, cap 10000000 "
     "(raise with --ball-order-cap (or reduce the radius))\n"),
    # 2 divides the orbit length 6, so the Sylow scan runs over all of Dih(6)
    ("series op --group Dih(6) --kind sylow --p 2 --element-cap 10",
     "error: element enumeration cap exceeded: requested 11, cap 10 "
     "(raise with --element-cap)\n"),
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
