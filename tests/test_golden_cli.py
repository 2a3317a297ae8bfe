"""Golden CLI outputs: the sha256 of stdout and stderr, and the exit code,
of one command line per subcommand and format, plus the usage, precision
and verification error exits.

Refactors must leave every byte of CLI output as it was; a change that
means to alter an output updates its digests here, in the same commit.
Runs each command in-process through `cli.run`, so the set costs about a
second.  To print the current digests, run

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from betawords import cli

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = [
    (["analyze", "--a", "3", "--b", "1", "--n-max", "12"], 0,
     "4afda817ce1c7c5ffef6dd9420db00566f42e80fa87b0e6bc718d22678d71931",
     EMPTY),
    (["analyze", "--a", "4", "--b", "2", "--n-max", "10", "--format", "json"], 0,
     "59ad31bebe0369a0f783bf49f4e32f7fe1629bc7b4c1b252b1a2c6eda58c365a",
     EMPTY),
    (["analyze", "--a", "5", "--b", "2", "--n-max", "10", "--format", "csv"], 0,
     "92547c90f8fb4cf9b85ac8932597623d3274eb6e05a6d384e2b584c07760e0b1",
     EMPTY),
    (["analyze", "--a", "3", "--b", "2", "--n-max", "6"], 0,
     "c91df8cf03dd08cb79d6ed3956c5f8a4245552f2b4c4fc37f5db8cc4887206c8",
     EMPTY),
    (["analyze", "--a", "4", "--b", "3", "--n-max", "6", "--format", "csv"], 0,
     "c91df8cf03dd08cb79d6ed3956c5f8a4245552f2b4c4fc37f5db8cc4887206c8",
     EMPTY),
    (["analyze", "--a", "2", "--b", "1", "--n-max", "5", "--format", "json"], 0,
     "8ae349e0e508b1214c0384e43e7470e0c099e352c1aa108808868ad5a9a808e3",
     EMPTY),
    (["analyze", "--a", "3", "--b", "3"], 2,
     EMPTY,
     "2a9f919faf3a2a59d816006ba3e3183f65eed2613f0bbc62d118f7ccc1334280"),
    # once past the window bound: with every run cut, 1.6 million letters
    (["analyze", "--a", "300", "--b", "1", "--n-max", "100000"], 0,
     "6dc1cf1b75d71ffd136137ccd27debd1b91d65cf5d7781174a4b0eef609b6388",
     EMPTY),
    # phi(0) = 0^99999999 1, held as its two runs: the bytes of the image
    # written out whole
    (["analyze", "--a", "99999999", "--b", "1"], 0,
     "a0c8dc64f3e11e3209765a633673d4ead41b7f0cae0d0cd389028fc28bbba073",
     EMPTY),
    # the window bound, reached from the cut sizes: 403 million letters for
    # n = 60, since each of the twenty single-letter images delays growth
    (["verify", "--digits", "2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 (1)"], 2,
     EMPTY,
     "26e2673817c0b4293177ecb110934b555d1ceb61a4c60e53ce4b4af4838bb9bc"),
    (["verify", "--a-max", "4", "--n-max", "30"], 0,
     "b43774af86de8874d73df9c2cd83b0d95c9c1e2ed12e844dba5f11c57cbaca32",
     EMPTY),
    (["verify", "--a-max", "3", "--n-max", "20", "--format", "json"], 0,
     "2d18ab35d42ce12d04d229c886ac0bd5acd76c234b6755fc47c7e37a8691a85e",
     EMPTY),
    # csv is analyze's alone
    (["verify", "--a-max", "3", "--n-max", "20", "--format", "csv"], 2,
     EMPTY,
     "cbed48df005525adc712ef4edb492f9150a8f3d5f1180747e6b31bbc3c118f30"),
    (["verify", "--digits", "3 (2 1)", "--n-max", "30"], 0,
     "f73467505f201ae89f16a881d4ed12d46ae3d74d5c85c6e9fe2fc553e610fcd8",
     EMPTY),
    (["verify", "--digits", "2 1 (1)", "--n-max", "20", "--format", "json"], 0,
     "0aed00cfa3da9312d2e073b3a87782ca33ec7dd931af0dece120babb1729b6ec",
     EMPTY),
    (["verify", "--digits", "4 1 1 (2 1)", "--n-max", "60", "--format", "json"], 0,
     "4ac5c98eef6cb17902f25894346724ca1cbe2d8a19bb0e75bcb36ab444b98ac5",
     EMPTY),
    # palindromes that extend by the letter 2 alone: P reads the same
    # whichever letters the extensions read
    (["verify", "--digits", "3 3 (3 2)", "--n-max", "60", "--format", "json"], 0,
     "e766c8d4ff01826f448409b061d8cf6797f2e0d3391ffddadec08518a4440bec",
     EMPTY),
    (["verify", "--a-max", "6", "--n-max", "60", "--format", "json"], 0,
     "c7342cb4e378b90046f3de80b695fdfb95b3ccc61a0cd9df5452ac9ad01ce6c1",
     EMPTY),
    # phi(0) has 10^10 + 1 letters, once refused at a bound on the image
    (["word", "--digits", "10000000000 (1)", "--length", "5"], 0,
     "64f277fa6be054fb021b92d8199f38025231e6d3c833a54dd501da394b547ce6",
     EMPTY),
    (["word", "--a", "3", "--b", "1", "--length", "50"], 0,
     "b91664a56f926a5145ed9afefd4185e2091332bf19c0aba2589243ce9bc8c3d3",
     EMPTY),
    (["word", "--digits", "3 1 (2)", "--length", "40", "--format", "json"], 0,
     "789b1a705d65a6190e6005741fb89b62b2a7450257a5c1ab71c1885661c6291a",
     EMPTY),
    # one empty line
    (["word", "--a", "3", "--b", "1", "--length", "0"], 0,
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
     EMPTY),
    # a simple expansion: the error line on stderr
    (["word", "--digits", "2 (0)"], 2,
     EMPTY,
     "e660297973175dad2aae200e12c15cbfe4cda249a26ea06d70b166306c0696a3"),
    # no tower start word 0^99999998 or 0^99999997 is built: the bytes of
    # the towers built whole
    (["specials", "--a", "99999999", "--b", "99999997", "--n", "5", "--format", "json"], 0,
     "54807795c32b6ba67ffed10587d06041bf646e0da5c6113f8105bf3f62688223",
     EMPTY),
    (["specials", "--a", "3", "--b", "1", "--n", "4"], 0,
     "69784816148d849bb88e08f0574163af5ec86160e9dfed99fc5fe33f30ac47d6",
     EMPTY),
    (["specials", "--a", "5", "--b", "2", "--n", "3", "--tower-depth", "12", "--format", "json"], 0,
     "f3c7a2b8384bfcbd307507a7fb8ff4e8d75eb6c0cf0ca7f597966b8b1461325c",
     EMPTY),
    (["specials", "--a", "6", "--b", "4", "--n", "5", "--tower-depth", "40"], 0,
     "643c614ac73ef27c6442e075e858c7670a98cfbcbfe52033a2f977e6b9b3d9dc",
     EMPTY),
    (["specials", "--a", "4", "--b", "3", "--n", "3"], 0,
     "fe3ac6cac72b9a4d292780290478c00bda78370ab0be82377d76a47fe7a4a3db",
     EMPTY),
    (["specials", "--a", "3", "--b", "1", "--n", "0"], 0,
     "b9d62889169e2f5372097ff1641dc8f0e1f47438134277cc15615d9d00dd51cc",
     EMPTY),
    (["specials", "--a", "7", "--b", "2", "--n", "300", "--format", "json"], 0,
     "830718e0337ee3b764b29d977966a34d1fd29b7ba5abfdc2ad97da10cbf71304",
     EMPTY),
    (["palindromes", "--a", "3", "--b", "1", "--n", "5"], 0,
     "514e9031328095136229863ff2191e40f6f7cc27a1af86a2e4cb76deb94687e1",
     EMPTY),
    (["palindromes", "--a", "5", "--b", "2", "--n", "4", "--format", "json"], 0,
     "3717e4d94ea18efcb9f7dd0b179142fdf2d46aa1022a6d6f12001167d576f392",
     EMPTY),
    (["palindromes", "--a", "4", "--b", "1", "--n", "3", "--branch-budget", "1"], 0,
     "73382dacfcb0efd80cb5e4426b47c096ecfe8fdeea54cc0a30bdf8f84ed16460",
     EMPTY),
    (["palindromes", "--a", "6", "--b", "2", "--n", "6", "--branch-budget", "500", "--format", "json"], 0,
     "b43388a66bc2bb39ee69fa76cdacd742705394b2ed7a5d3b97074ce22fb59b9f",
     EMPTY),
    (["palindromes", "--a", "5", "--b", "2", "--n", "9", "--format", "json"], 0,
     "c3993d6657d16c5b70f7ce703475c62540212ca06f7ed4d17228dc2dc6215510",
     EMPTY),
    (["palindromes", "--a", "8", "--b", "3", "--n", "4", "--branch-budget", "100000", "--format", "json"], 0,
     "148260a4fd01ec364b8b8b7f2949cc9898fa52fe33f52297c0c7a0ecec1ff5d5",
     EMPTY),
    (["palindromes", "--a", "7", "--b", "3", "--n", "7"], 0,
     "88da11e8db6c894296f81bd6642f4ac3280988b8490d41c7d5693cee45d466be",
     EMPTY),
    (["palindromes", "--a", "4", "--b", "2", "--n", "2", "--branch-budget", "0"], 0,
     "7d723338ae728735691073aeb4f319451323925e53c10ccad6b0aa0ea38b89d5",
     EMPTY),
    (["parry-check", "--digits", "3 1 (2)"], 0,
     "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268",
     EMPTY),
    (["parry-check", "--digits", "1 (2)", "--format", "json"], 4,
     "c6dfe9298a6388d4da184a5d3e4d780a11da25b0d1c7042b312ab7dc50383acf",
     EMPTY),
    (["parry-check", "--digits", "1 (2)"], 4,
     "e529ba9f011d57ebadf86a5ea45dbbfaf337d95de6c6134985836c738e2bcf56",
     EMPTY),
    # non-minimal: 4 1 (1 2) spelled long
    (["parry-check", "--digits", "4 1 1 (2 1)", "--format", "json"], 0,
     "b2958c63963c90fdaf1bb39105241c58f4c8f6cae85c709db0f99bacf2066906",
     EMPTY),
    (["beta-expand", "--a", "3", "--b", "1", "--x", "7.25"], 0,
     "3707215ce6b42c4235fc40e7db8198b9169218e90e9b74666fd084866f2ded63",
     EMPTY),
    (["beta-expand", "--a", "4", "--b", "2", "--x", "100", "--digit-count", "8", "--format", "json"], 0,
     "6361954725b677cebdd3689420cbb00e2f39e6eddd91a1bc0b87c2551f6bb302",
     EMPTY),
    # fewer digits than x has before the point: a usage error
    (["beta-expand", "--a", "3", "--b", "1", "--x", "100", "--digit-count", "3"], 2,
     EMPTY,
     "843b069bcbf93fe62719b45e551a0d62f865030dc750161e9f01f63b4bdaa3c9"),
    # beta-expand takes no --precision: its digits are exact
    (["beta-expand", "--a", "4", "--b", "2", "--x", "100", "--digit-count", "8", "--precision", "30", "--format", "json"], 2,
     EMPTY,
     "ea3d4e1d7349262b87f820fc4b378150a0aa3ddce80cefc7d620894624bace4a"),
    (["beta-integers", "--a", "3", "--b", "1", "--count", "20"], 0,
     "ca96cd301579f98e750d1bb3624d7ab97186a7f6f916ab3b6de0b7fc488bc87f",
     EMPTY),
    (["beta-integers", "--digits", "3 (2 1)", "--count", "30", "--format", "json"], 0,
     "4666144492250611910397f33205d3be0b1a0381c1917926e280130cdfd70490",
     EMPTY),
    (["beta-integers", "--digits", "3 1 (2)", "--count", "15", "--precision", "16", "--format", "json"], 0,
     "5c7bc00d23f959648277f2ad0eff9ce1187801e15db2d1a71adc4bcda098ecd4",
     EMPTY),
    (["beta-integers", "--digits", "4 (2)", "--count", "2000", "--format", "json"], 0,
     "9e33f669e3565882e3e001fb856aa3962f923bcb01f9ee4e9ff7251e1b6531c9",
     EMPTY),
    # non-minimal, with Delta_4 = Delta_2: the gaps spell the fixed point of
    # the minimal spelling 4 1 (1 2), and the digits print as given
    (["beta-integers", "--digits", "4 1 1 (2 1)", "--count", "40", "--format", "json"], 0,
     "eb10df4c9801d2856f59cc847e7fe4b79d0f0462df39d28b48cfffca7ab87488",
     EMPTY),
    (["beta-integers", "--a", "3", "--b", "1", "--count", "20", "--precision", "5"], 0,
     "d219d57756e338a3b8c6df21f948013a0820d369c8b0935ff7e95e67db03bb41",
     EMPTY),
    (["beta-integers", "--a", "3", "--b", "1", "--count", "3000", "--precision", "2"], 3,
     EMPTY,
     "ee867be0eb761331e21ade5981a801ed1579a2c53c43c68afebe62e178b2d951"),
    (["analyze", "--a", "3", "--b", "1", "--n-max", "0"], 2,
     EMPTY,
     "229c75f26a3461caecbfd090668f3f57e830bd9b742a1192cc3be502c2a4367c"),
    (["analyze", "--a", "3", "--b", "1", "--n-m", "3"], 2,
     EMPTY,
     "a4f2afd38751811047a58533cc7e9d970c64276d3d017e764a6df5c9d383a6e7"),
    # usage errors read as click wrote them: --help takes no value at either
    # level, `--` ends the options, and an unknown option is reported as soon
    # as it is read
    (["--help=3"], 2,
     EMPTY,
     "3192866e20e4dd71f62b3ff335c346bb7c994961158b80d67e7d074744636d6a"),
    (["analyze", "--help=3"], 2,
     EMPTY,
     "3192866e20e4dd71f62b3ff335c346bb7c994961158b80d67e7d074744636d6a"),
    (["analyze", "--a", "3", "--b", "1", "--help="], 2,
     EMPTY,
     "3192866e20e4dd71f62b3ff335c346bb7c994961158b80d67e7d074744636d6a"),
    (["analyze", "--", "--a", "3"], 2,
     EMPTY,
     "0d3bd78cae102c49fa13ba82f67d4db608a49d40aef7780fd5d2a56a5f3c2278"),
    (["analyze", "--bogus", "--a"], 2,
     EMPTY,
     "a2c908c551c8ab238757f62ec1a819b3d1c591122af9ec00206d9497b0bd813f"),
    (["specials", "--", "--n", "2", "--format"], 2,
     EMPTY,
     "9871aa3e005e464af179ec53c64aab4b17f825cf73f286b7d270a9f91fbee36d"),
    (["beta-integers", "--help=1", "--format"], 2,
     EMPTY,
     "3192866e20e4dd71f62b3ff335c346bb7c994961158b80d67e7d074744636d6a"),
    # help names the program by argv[0], here "betawords"
    (["--help"], 0,
     "bdac676c8746ab37b6b874ece13ab8b0fb3902262bb33cdba568943fd27081ed",
     EMPTY),
    (["beta-expand", "--help"], 0,
     "acf872da24e6d198350ff77b26ded9df6d81d3eb8847263cde8f17010d2800a0",
     EMPTY),
]


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """Exit code and the sha256 of stdout and of stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["betawords", *argv]
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.run()
        code = 0
    except SystemExit as stop:
        code = stop.code
    finally:
        sys.argv = saved

    def sha(stream):
        return hashlib.sha256(stream.getvalue().encode()).hexdigest()

    return code, sha(out), sha(err)


@pytest.mark.parametrize("argv, code, out_sha, err_sha", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_output_is_unchanged(argv, code, out_sha, err_sha):
    assert outcome(argv) == (code, out_sha, err_sha)


def test_golden_set_covers_every_subcommand_and_format():
    commands = {g[0][0] for g in GOLDEN if g[0][0][:1] != "-"}
    assert commands == set(cli.main.commands)
    formats = {g[0][g[0].index("--format") + 1] if "--format" in g[0] else "text"
               for g in GOLDEN if g[1] == 0}
    assert formats == {"text", "json", "csv"}
    assert {g[1] for g in GOLDEN} == {0, 2, 3, 4}


if __name__ == "__main__":
    for argv, *_ in GOLDEN:
        code, out_sha, err_sha = outcome(argv)
        shas = ["EMPTY" if s == EMPTY else f'"{s}"' for s in (out_sha, err_sha)]
        print(f"    ({json.dumps(argv)}, {code},\n     {shas[0]},\n     {shas[1]}),")
