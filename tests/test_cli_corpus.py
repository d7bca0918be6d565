"""Byte-identity corpus for the command-line interface.

Each entry is a command line; it runs in-process through ``cli.main`` in a
directory that holds the space files ``plane.json`` and ``bad.json``, and
the sha256 of its exit code, stdout and stderr must match the recorded
digest.  The CLI contract's ``verdict`` (``tools/fuzz_cli.py``) judges each
output too, so a re-record cannot take in a failed check or a refusal that
is not one JSON line on stderr.  Commands are run in every format unless
they pass ``--format`` themselves; a leading ``NAME=value`` word sets an
environment variable for that command only.  Output that no Python version
changes is recorded, so argparse usage errors and ``--help`` stay out.

A change that alters output on purpose re-records the digests and says so:

    PYTHONPATH=src python tests/test_cli_corpus.py > digests.txt

prints a fresh ``DIGESTS`` block to paste over the one below.
"""

import hashlib
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from confcohom.cli import main
from test_cli import fuzz

FORMATS = ("json", "plain", "latex")

COMMANDS = [
    # poincare: every target, each with its checks section
    "poincare --space c --target fm --m 0",
    "poincare --space c --target fm --m 4",
    "poincare --space cstar --target fm --m 5",
    "poincare --space plane.json --target fm --m 3",
    "poincare --space c --target delta --l 2 --m 5",
    "poincare --space cstar --target delta_le --l 3 --m 6",
    "poincare --space c_minus_1 --target delta --l 4 --m 4",
    "poincare --space c --target ordinary --m 5",
    "poincare --space r3 --target ordinary --m 4",
    "poincare --space c --target cf --m 6",
    "poincare --space cstar --target cf --m 5",
    "poincare --space c --target cf --m 10",
    "poincare --space c --target bf --m 4",
    "poincare --space cstar --target bf --m 3",
    "poincare --space c --target bf --m 7",
    "poincare --space cstar --target sym --m 4",
    "poincare --space r3 --target sym --m 3",
    "poincare --space c_minus_1 --target sym --m 5",
    "poincare --space cstar --target cyc --m 4",
    "poincare --space r3 --target cyc --m 6",
    "poincare --space c --target fm --m 1500 --format json",
    # character
    "character --space c --m 4 --cycle-type 1^4",
    "character --space c --m 6 --cycle-type 3^2",
    "character --space cstar --m 5 --cycle-type 2^2,1",
    "character --space cstar --m 4 --all",
    "character --space c_minus_1 --m 5 --all",
    "character --space c --m 0 --all",
    "character --space c --m 7 --all",
    # universal
    "universal --l 3 --m 6 --closed",
    "universal --l 2 --m 5",
    "universal --l 1 --m 1",
    "universal --l 11 --m 12 --closed",
    # quotient
    "quotient --space c --m 3 --generators '(1 2 3)'",
    "quotient --space cstar --m 6 --generators '(1 2);(1 2 3 4 5 6)'",
    "quotient --space c --m 6 --generators '(1 2 3)(4 5 6)'",
    "quotient --space r3 --m 5",
    "quotient --space c_minus_1 --m 5 --generators '(1 2)(3 4);(1 3 5)'",
    "quotient --space c --m 8 --generators '(1 2);(1 2 3 4 5 6 7 8)'",
    "quotient --space plane.json --m 0",
    # stability
    "stability --space c --i 1 --a 0 --range 1..8",
    "stability --space r3 --i 2 --a 0 --range 1..6",
    "stability --space cstar --i 1 --a 1 --range 2..7",
    "stability --space r3 --i 2 --a 3 --range 1..8",
    "stability --space cstar --i 2 --a 2 --range 1..9",
    "CONFCOHOM_MAX_M=14 stability --space c --i 2 --a 1 --range 1..14 --format json",
    "selftest",
    # refusals: hypothesis (2), parse (3), cost cap (5)
    "poincare --space klein_pointed --target fm --m 3",
    "poincare --space klein_pointed --target delta --l 2 --m 3",
    "character --space klein_pointed --m 4 --all",
    "quotient --space klein_pointed --m 2",
    "stability --space klein_pointed --i 1 --range 1..4",
    "poincare --space no_such_space --target fm --m 3",
    "poincare --space bad.json --target fm --m 2",
    "poincare --space c --target delta --m 3",
    "poincare --space c --target delta --l 5 --m 2",
    "poincare --space c --target fm --m -1",
    "poincare --space c --target cf --m 0",
    "universal --l 3 --m 2",
    "character --space c --m 3 --cycle-type 2^2",
    "quotient --space c --m 4 --generators '(1 5)'",
    "quotient --space c --m 4 --generators ')('",
    "quotient --space c --m 3 --generators '(1 2) 3'",
    "quotient --space c --m 3 --generators 'x(1 2)'",
    "quotient --space c --m 3 --generators '(1 2)junk(3)'",
    "character --space c --m 3 --all --cycle-type zzz",
    "stability --space c --i 1 --a 3 --range 1..3",
    "CONFCOHOM_MAX_M=abc poincare --space c --target fm --m 3",
    "character --space c --m 13 --all",
    "character --space c --m 14 --cycle-type 14",
    "poincare --space c --target bf --m 200",
    "quotient --space c --m 11 --generators '(1 2);(1 2 3 4 5 6 7 8 9 10 11)'",
    "CONFCOHOM_MAX_M=0 poincare --space c --target cf --m 3",
    "CONFCOHOM_MAX_M=13 poincare --space c --target cf --m 13 --format json",
]

SPACE_FILES = {
    "plane.json": json.dumps(
        {"name": "my-plane", "poincare_c": [0, 0, 1], "dim": 2, "i_acyclic": True}
    ),
    "bad.json": "{not json",
}


def corpus() -> list[str]:
    commands = []
    for command in COMMANDS:
        if "--format" in command:
            commands.append(command)
        else:
            commands += [f"{command} --format {fmt}" for fmt in FORMATS]
    return commands


def run_line(command: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command line."""
    words = shlex.split(command)
    out, err = StringIO(), StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        while words and "=" in words[0]:
            patch.setenv(*words.pop(0).split("=", 1))
        code = main(words)
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    """sha256 of the exit code, stdout and stderr of one command line."""
    return hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest()


def write_space_files(directory: str) -> None:
    for name, text in SPACE_FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)


DIGESTS = {
    "poincare --space c --target fm --m 0 --format json":
        "7cec3bba31397b993b829c1c3fcb61ab24c5f70c32e40146c30ff75c48736dae",
    "poincare --space c --target fm --m 0 --format plain":
        "c83e41485cbd996e670a62451ffa9e2329d76d94d5a06a8ffa05bc72f9169c36",
    "poincare --space c --target fm --m 0 --format latex":
        "c83e41485cbd996e670a62451ffa9e2329d76d94d5a06a8ffa05bc72f9169c36",
    "poincare --space c --target fm --m 4 --format json":
        "e3cf49102706b396603b9f6a85b629f8937c738690f9422955b7c142b5040152",
    "poincare --space c --target fm --m 4 --format plain":
        "75cc082ea4ada5368367f25e6146ca6d91a80443db662e7f2d80beed393e16b8",
    "poincare --space c --target fm --m 4 --format latex":
        "488f4aebaf75bfe145966b677b4b94e251365f7bb20ca9c15017ca2f248b3451",
    "poincare --space cstar --target fm --m 5 --format json":
        "a34c5786a7e944d63bab7bcaf41676166df72c519877964b5cba114fc11cebd2",
    "poincare --space cstar --target fm --m 5 --format plain":
        "825b45cc6108fc8b1e1f6e5834ae59d12293b02eee4e85df3b1c68b17722b6d4",
    "poincare --space cstar --target fm --m 5 --format latex":
        "e11763681b095e21fcaac9c574ed2f4a8b5f4a39aa1b653aee6d93c7ffdfad34",
    "poincare --space plane.json --target fm --m 3 --format json":
        "873044fd7b7013f3e597a149b226691e36da8abf8f22eaef0b851cb40fe440e5",
    "poincare --space plane.json --target fm --m 3 --format plain":
        "cd1f88c79e93ad38d4033010336c150e7a4e97c3fb837df270adcab43a61a4ac",
    "poincare --space plane.json --target fm --m 3 --format latex":
        "1649c1c7dc8e0d14a8c3b299f308555f7e3bb6f4d89c20251ab4169b8f4b2583",
    "poincare --space c --target delta --l 2 --m 5 --format json":
        "aa05a8c5bb1aa517bc077f595e1dd73ae4c48498eced109a46834f473c79ba2d",
    "poincare --space c --target delta --l 2 --m 5 --format plain":
        "e48de0f35b2e1d07e212a6944feb5593731626df74e1f0b6666d447798c372f7",
    "poincare --space c --target delta --l 2 --m 5 --format latex":
        "2bea8edf061d22105a69400f0a89234ff94961dd02333e1b38ea353e5c4c040c",
    "poincare --space cstar --target delta_le --l 3 --m 6 --format json":
        "36ad1990d140828f88cf2902ab3c3336e55c60c3c289e23e12e9574d2da07dfd",
    "poincare --space cstar --target delta_le --l 3 --m 6 --format plain":
        "51eaf89f7d1b93b8291a8e4091b9dae90d0c88e05e5008c58c9a7c1736eb9725",
    "poincare --space cstar --target delta_le --l 3 --m 6 --format latex":
        "c05ac3656a25525864bcdb8ec1264f623e5452fdddc958bfc259905c8feffd93",
    "poincare --space c_minus_1 --target delta --l 4 --m 4 --format json":
        "76b979aef702bbd671a2b29f6e7651788ed7651d590004647dfd812d74ef3164",
    "poincare --space c_minus_1 --target delta --l 4 --m 4 --format plain":
        "22973114aaf3817c77fbd91762b1934cfe9d4299db4462e7ecb2cc165ac7a27e",
    "poincare --space c_minus_1 --target delta --l 4 --m 4 --format latex":
        "a6ed2f8040a94aeb2b81ce0e69e781dbda27f9ce62e789c581e7c6f44f732c20",
    "poincare --space c --target ordinary --m 5 --format json":
        "d4567f3c3a68e1bdb89e05cba21e5b5f501390f10b1a8d9b5df0f2ef24704d93",
    "poincare --space c --target ordinary --m 5 --format plain":
        "3d6f9bb3e2e5a0777ee0617256b254f38c50b1df21871072c12ed95635ff5510",
    "poincare --space c --target ordinary --m 5 --format latex":
        "fca28521578d6253890c8928b17efd4b7cdc02746b3d29d8324e9d069ee585a7",
    "poincare --space r3 --target ordinary --m 4 --format json":
        "40dac597774985bfb4865a24b0224e9b6a975d044715ff12e959f5aa7e8973f4",
    "poincare --space r3 --target ordinary --m 4 --format plain":
        "451d04357a897e9f1b72b54a9bb53a02d068c5eebb6ecd004659c823cbfefaa2",
    "poincare --space r3 --target ordinary --m 4 --format latex":
        "e1c8c077a1812403a9b81899f9113aa72d70db41581140eed2260cb266743de3",
    "poincare --space c --target cf --m 6 --format json":
        "159532933e42a5b0511f97cd08a248701dfac1bc1d691d1e6b03ba2229b1bc20",
    "poincare --space c --target cf --m 6 --format plain":
        "6f088c11d1bb5776b010daecadff0102b235bf599bffd9cedaa889b8b6397ea9",
    "poincare --space c --target cf --m 6 --format latex":
        "ed539a7d5cc376d0f8725a5f20aa72dba2ec2e41adb75264595b4fd5e18b7e60",
    "poincare --space cstar --target cf --m 5 --format json":
        "a53344bf0bc9cd80531ac65f08af87e69571338141e56f40835a5c4b27232079",
    "poincare --space cstar --target cf --m 5 --format plain":
        "48de095eb4eba49bee0b9f793e3f71928ecf76b714ffe03a7d3dd49b90d3157a",
    "poincare --space cstar --target cf --m 5 --format latex":
        "26389f7c4f41461d737f1fe7f0ae88dc7b9b849b7563d7895b36c82ebbee67cf",
    "poincare --space c --target cf --m 10 --format json":
        "396c5a699a9d15fec5061f57ca479aae13cf9afb8d88e61b9ad15ccbe4e71fe2",
    "poincare --space c --target cf --m 10 --format plain":
        "75ea4ad105c35852d748bab81265a75927e5db56183020187987f55e3798910b",
    "poincare --space c --target cf --m 10 --format latex":
        "4da659a1a8859f0b7105ea2676ae1fe8735db3b43a6527e5a70f2782be106d7d",
    "poincare --space c --target bf --m 4 --format json":
        "0ba9d7510f43429c943518b4af18c30097d40872e6bec559e0051bd7dfacb3e2",
    "poincare --space c --target bf --m 4 --format plain":
        "cfb18cca19fd8be04a90ab1e6e5359e21bb86a38d72c5f1a5f81ec75d0f886b3",
    "poincare --space c --target bf --m 4 --format latex":
        "1fd2e7415703ad269a86dff02305825e38b62b4c454dc28b18e5a3a2417f88c4",
    "poincare --space cstar --target bf --m 3 --format json":
        "ba4fccf909fa58ca73ae3ae850f53225b9a6e7dc46ccfc4ec77b32a62ff47b2d",
    "poincare --space cstar --target bf --m 3 --format plain":
        "afb6c37d5e153289bd6411410f09c5af9cd7e199d9a6578ebc43225f0813059b",
    "poincare --space cstar --target bf --m 3 --format latex":
        "07e52e290e492754519ac064771e58390513d21fe69bec1cced7ebc69ddc3f93",
    "poincare --space c --target bf --m 7 --format json":
        "59cdb944e6823fd4f0eb27687f7d3e0903b33d2305b4fb86c3899a5a0e21e297",
    "poincare --space c --target bf --m 7 --format plain":
        "403c632ab1989e47f78f36d89b5093efbc405f4d7d4a9bf59635dfeb54ad99ac",
    "poincare --space c --target bf --m 7 --format latex":
        "40c82328404926584f34fc5604eb61aa7532125657915c27ee660cfc85d7e50c",
    "poincare --space cstar --target sym --m 4 --format json":
        "1521a99bd6189c6fcbc3989bf7965e9688f5dd410aecf0e35876957c3d955cbc",
    "poincare --space cstar --target sym --m 4 --format plain":
        "79a4fe5994b11055a6d7dda2ff58ca15724515d4b93dab85696d42461a27e366",
    "poincare --space cstar --target sym --m 4 --format latex":
        "83adf993f77195c3645f3b88ab903d47c73bfe47014ec5f1ca9091d40aa0c543",
    "poincare --space r3 --target sym --m 3 --format json":
        "64d469799c2f01677f3b91c7ddaad2fff8171baadb0713a518aae194465ed368",
    "poincare --space r3 --target sym --m 3 --format plain":
        "95ccda1d0a4ed3c08dfdc8184c301f04800a2bbec2fa587dd2532f80b41ebf39",
    "poincare --space r3 --target sym --m 3 --format latex":
        "95ccda1d0a4ed3c08dfdc8184c301f04800a2bbec2fa587dd2532f80b41ebf39",
    "poincare --space c_minus_1 --target sym --m 5 --format json":
        "2da018166fb02a2b941c36e3e817f761b87f69edd0d9dbd1f297d88ab2054adf",
    "poincare --space c_minus_1 --target sym --m 5 --format plain":
        "ca3a99cda99ebf8355e4845caa5dda04e7227b0544c0cc5827c564e533ce1cb1",
    "poincare --space c_minus_1 --target sym --m 5 --format latex":
        "1611aece5123aa5bb35333b5155185251aca506cc07069eaed19e5560f7e518f",
    "poincare --space cstar --target cyc --m 4 --format json":
        "1146d6b8416de1b1f9251b4ae585714a15f853e80d76bd5047e1cff065c14507",
    "poincare --space cstar --target cyc --m 4 --format plain":
        "213f2d0da0196b8409716d71b7de9aa5424efe6f2dd54a1439e780fe958fedcf",
    "poincare --space cstar --target cyc --m 4 --format latex":
        "c77ae062e1df4ce6ca337902cfe03c8da0f28fbffbb98264e2497b3556f8c99b",
    "poincare --space r3 --target cyc --m 6 --format json":
        "1cb63ecacf59b3e3f295c36dc0ce5c55a84169f419bf7da5598990f4b0c83151",
    "poincare --space r3 --target cyc --m 6 --format plain":
        "e5b7400049065d84f5f3035361e9567952a5a4b50b35fe376195da1385efcdf1",
    "poincare --space r3 --target cyc --m 6 --format latex":
        "e5b7400049065d84f5f3035361e9567952a5a4b50b35fe376195da1385efcdf1",
    "poincare --space c --target fm --m 1500 --format json":
        "b322a0366551afc338941e62f345135f0eb04dfd67b8aa0b6e96204d49e72f4c",
    "character --space c --m 4 --cycle-type 1^4 --format json":
        "250a2e3820ffbdf4aa66cb1a7dd4b2113bd1e26069ee719ff9862f5342859393",
    "character --space c --m 4 --cycle-type 1^4 --format plain":
        "427bbb6a72245044cc04c16daacc291576466b9a606b7a0b6ce06c499b79e931",
    "character --space c --m 4 --cycle-type 1^4 --format latex":
        "86bddbd347733976f4a6b94443c8103e1af09d2d011608f68ff8ef5728f5bd9d",
    "character --space c --m 6 --cycle-type 3^2 --format json":
        "fe58f81b61f4311abb96572bd9aa917e7dd7466a5094a1e963b926a0653800f7",
    "character --space c --m 6 --cycle-type 3^2 --format plain":
        "e4b35296871d2a27842f8fef32f5b40327bce13c63e1af9435ff959cd5593219",
    "character --space c --m 6 --cycle-type 3^2 --format latex":
        "4ec8f8451f31cb072de824171148e98490afb3adb7671c4daf014a4842e9cf5c",
    "character --space cstar --m 5 --cycle-type 2^2,1 --format json":
        "4695d8aa2a11090a8a43c4b2d7bb8c4fc02d3a0f547cdd1ab60c18f71aef12fa",
    "character --space cstar --m 5 --cycle-type 2^2,1 --format plain":
        "9de34dd23ff34baed57f2cf3898dd7afd821cec4dffa08cc6cfef6a980dfb5eb",
    "character --space cstar --m 5 --cycle-type 2^2,1 --format latex":
        "4987d1149aea829be18117fe77f001b17da6e28affd6233c9320cd63e86fa9d7",
    "character --space cstar --m 4 --all --format json":
        "9df22881cacae471a7d707c59bb19930c303712f597b60d0fa390dcec19ae908",
    "character --space cstar --m 4 --all --format plain":
        "f4b575da2dcaeec281ca7d57190716f2eedf7eb0e6a92b2f15c97f7a58d94d5f",
    "character --space cstar --m 4 --all --format latex":
        "0ace2c17213edf8e92621a849439ce26e7a633cf139f4d59a942f011686abdc9",
    "character --space c_minus_1 --m 5 --all --format json":
        "9f57ff97239ed689372748ceb26a6abd4248ff36250ff201e7044ca6a306138f",
    "character --space c_minus_1 --m 5 --all --format plain":
        "ec3b1904262af3eed9f2468e0c9907e72671e4f7f087efc66486416f9d1f8596",
    "character --space c_minus_1 --m 5 --all --format latex":
        "5aa9f491ce48b7dac00e341c56cada45b2042a5ab3d20d4e5cdc009bbc5472d1",
    "character --space c --m 0 --all --format json":
        "19d5e147ecd7bc9580447da18cbdc4e1bef75b146566c526a37871bbf7cbf9ed",
    "character --space c --m 0 --all --format plain":
        "8cc798c0e71b604d6e532e0e31a3e5bbf59b971788e372d3ecab4627766a7120",
    "character --space c --m 0 --all --format latex":
        "8cc798c0e71b604d6e532e0e31a3e5bbf59b971788e372d3ecab4627766a7120",
    "character --space c --m 7 --all --format json":
        "183d2cfd1b343112c1e722d1dacadc1cf854058c11889d69a06f0ea5056c1df4",
    "character --space c --m 7 --all --format plain":
        "e913c60419748a5bac1bc41b58fde9611253a7374885cdf82d4bedc13c018b81",
    "character --space c --m 7 --all --format latex":
        "330db2424bab9878c6aa25ccbc28ac95a6f51913496a8e890d1febee1ee348b3",
    "universal --l 3 --m 6 --closed --format json":
        "0883f383483e6f6ac3f158d50482b8bd1f7c66b5300aed1c0adc039882c7158a",
    "universal --l 3 --m 6 --closed --format plain":
        "22fc03498883a66d47327b718a2415a4cdf77b6c14826255e161417520653142",
    "universal --l 3 --m 6 --closed --format latex":
        "22fc03498883a66d47327b718a2415a4cdf77b6c14826255e161417520653142",
    "universal --l 2 --m 5 --format json":
        "bbb9f55731499bff5534ad6020a74260fd2f435ce20f8a1aa2dafd0bab48e3d9",
    "universal --l 2 --m 5 --format plain":
        "d211f417d46093b323aeceb60fb6749b98606bbae354a7fbda2542060dce3096",
    "universal --l 2 --m 5 --format latex":
        "d211f417d46093b323aeceb60fb6749b98606bbae354a7fbda2542060dce3096",
    "universal --l 1 --m 1 --format json":
        "608a2e25a4644e35dc4c7424f836d857ce4fc71b5a8d75c256fcadd36ceb6b55",
    "universal --l 1 --m 1 --format plain":
        "3c61747bf43591dae6ba494cfe59ec65dad749911a31154b5892fd3a968bef4a",
    "universal --l 1 --m 1 --format latex":
        "3c61747bf43591dae6ba494cfe59ec65dad749911a31154b5892fd3a968bef4a",
    "universal --l 11 --m 12 --closed --format json":
        "405444e119eaa0c29c59a98969b862ab62d2acbdfb53ebdd8475732c7063c8c0",
    "universal --l 11 --m 12 --closed --format plain":
        "960e26eb6720bf1cea25b3d7ab0ac6576a5d6cd1ce046467398881e9143826ac",
    "universal --l 11 --m 12 --closed --format latex":
        "f6720c8e60a841211ce0dd69ae0f7aed369fa615d1be329902a6b5a66e32cfa8",
    "quotient --space c --m 3 --generators '(1 2 3)' --format json":
        "219a66dffcc850f69cd365e02c7243a8f7275734814ca66f10f1b97d57ac8279",
    "quotient --space c --m 3 --generators '(1 2 3)' --format plain":
        "734d5364d890f589f42c1d3c2553648647e9048a16eb6c6daecec43d1a4dfbab",
    "quotient --space c --m 3 --generators '(1 2 3)' --format latex":
        "5c05357fd36c05ad5dd4bb30a4c8a80e255f88f144cdd949de6b55060e640cae",
    "quotient --space cstar --m 6 --generators '(1 2);(1 2 3 4 5 6)' --format json":
        "1ff11819f85ea3f2424f7ce7f196d6fcc3e626b85cb6255a0b10aa69b798fbf7",
    "quotient --space cstar --m 6 --generators '(1 2);(1 2 3 4 5 6)' --format plain":
        "bbc1055d436bfcfa5c23cc7e5a49077d4acadac222e70f4cb7c660dc4fff3e4f",
    "quotient --space cstar --m 6 --generators '(1 2);(1 2 3 4 5 6)' --format latex":
        "7ab6bfa497e7a6bf3bb432e03836239a9a1d2a08f756906d48d0b8e625cb9c77",
    "quotient --space c --m 6 --generators '(1 2 3)(4 5 6)' --format json":
        "c3990a09b30bf05358d629236f8d62445f22f5d8748d0c4eaaca6c40a57f0457",
    "quotient --space c --m 6 --generators '(1 2 3)(4 5 6)' --format plain":
        "af427c6280afab4bfa3b1162ec94401c5f79ae12bb6bdc05978c32afaab26162",
    "quotient --space c --m 6 --generators '(1 2 3)(4 5 6)' --format latex":
        "8a60198120a6e0300d49d818843f3cbdb514f5b24aa041ce788bdccf509cc5f6",
    "quotient --space r3 --m 5 --format json":
        "a9acf3070515e64b0529fdbae14c7199d84cd1369496c4b9d560e050e9db4591",
    "quotient --space r3 --m 5 --format plain":
        "22e2379dd32a59b447df4b792ef92035484e0cb52c7adb5050741af03de67322",
    "quotient --space r3 --m 5 --format latex":
        "74c338bd0fcdf665ed5139388d7f0974a966d550ab0d011d38effcff51b88d92",
    "quotient --space c_minus_1 --m 5 --generators '(1 2)(3 4);(1 3 5)' --format json":
        "a06fe7e5d573e7129c2709ba0e80813701463e274c635a1d1d2e54e62366d7cc",
    "quotient --space c_minus_1 --m 5 --generators '(1 2)(3 4);(1 3 5)' --format plain":
        "71f9ee07f48bbf2ef6d31947be2032023a90609426ae0bb6ba64ba7fe9cd27ee",
    "quotient --space c_minus_1 --m 5 --generators '(1 2)(3 4);(1 3 5)' --format latex":
        "f4c2671299577db0e39053f0325225627a426d2e240d731c861b0661f1d5f853",
    "quotient --space c --m 8 --generators '(1 2);(1 2 3 4 5 6 7 8)' --format json":
        "a68192efe7b05261e66117cab9ddf6f9315c553e2f9083f104e4dde4c647aee5",
    "quotient --space c --m 8 --generators '(1 2);(1 2 3 4 5 6 7 8)' --format plain":
        "87314d38179f7b9ef47bd4359bd09d83394a15dbc200109b50c4a226e1104cd9",
    "quotient --space c --m 8 --generators '(1 2);(1 2 3 4 5 6 7 8)' --format latex":
        "93915e5852bac791c7cbe2d38ffdbe9e709d76461f897b1a8d6e6de07840ede6",
    "quotient --space plane.json --m 0 --format json":
        "eb4e73c03baa27b690d4172df62809f70e9925fe1417894e74d3b6ad0f836541",
    "quotient --space plane.json --m 0 --format plain":
        "0bc73e2686d7fa2ba9bdbf93b2b24606e0befb42e9f0338a2fae2a3471c647fd",
    "quotient --space plane.json --m 0 --format latex":
        "0bc73e2686d7fa2ba9bdbf93b2b24606e0befb42e9f0338a2fae2a3471c647fd",
    "stability --space c --i 1 --a 0 --range 1..8 --format json":
        "97c4167438afd00b81394628a973f782800cb438d14d139e434dc878d7f45055",
    "stability --space c --i 1 --a 0 --range 1..8 --format plain":
        "889a6acb56992e7ffeeec7c9490b2342a304d2bfc62a96035016baf17480f057",
    "stability --space c --i 1 --a 0 --range 1..8 --format latex":
        "889a6acb56992e7ffeeec7c9490b2342a304d2bfc62a96035016baf17480f057",
    "stability --space r3 --i 2 --a 0 --range 1..6 --format json":
        "9e4e4ccae9b86e3804f762dc93ab7ac5fc17bf19285a78bed494402cb5778558",
    "stability --space r3 --i 2 --a 0 --range 1..6 --format plain":
        "f2f93535daf0ee26a33ea26c648537ed0777236622fcf500d3bacb13ebc1c4a1",
    "stability --space r3 --i 2 --a 0 --range 1..6 --format latex":
        "f2f93535daf0ee26a33ea26c648537ed0777236622fcf500d3bacb13ebc1c4a1",
    "stability --space cstar --i 1 --a 1 --range 2..7 --format json":
        "98f843d0ab22d5677a207202dfc9f3089ea9599aa772ce443078799073123b95",
    "stability --space cstar --i 1 --a 1 --range 2..7 --format plain":
        "f2fc12e136764949d93ad5060684b88d4fba265ff14f57b1419e5741b477439f",
    "stability --space cstar --i 1 --a 1 --range 2..7 --format latex":
        "f2fc12e136764949d93ad5060684b88d4fba265ff14f57b1419e5741b477439f",
    "stability --space r3 --i 2 --a 3 --range 1..8 --format json":
        "cb4f430c12a907b85ab1ac35035693cc62bd366af3c6610d6be15a01df7b3e8d",
    "stability --space r3 --i 2 --a 3 --range 1..8 --format plain":
        "9d12dd0aa2c6289a4502bd7b2d0f2ce181401a3413c009610263bcb3128763a5",
    "stability --space r3 --i 2 --a 3 --range 1..8 --format latex":
        "9d12dd0aa2c6289a4502bd7b2d0f2ce181401a3413c009610263bcb3128763a5",
    "stability --space cstar --i 2 --a 2 --range 1..9 --format json":
        "fa692f69b50c6df205ba938f89fae9087603eab415d4c94ade2711759114b2a9",
    "stability --space cstar --i 2 --a 2 --range 1..9 --format plain":
        "70179b83ea2dce95c1f26c39e3e0eac7b669eb3f95e2b29a091ff06d28078669",
    "stability --space cstar --i 2 --a 2 --range 1..9 --format latex":
        "70179b83ea2dce95c1f26c39e3e0eac7b669eb3f95e2b29a091ff06d28078669",
    "CONFCOHOM_MAX_M=14 stability --space c --i 2 --a 1 --range 1..14 --format json":
        "f7315251b076d871e3d69f41ee9321fd291db5e32f5c8371791d28daf5484e12",
    "selftest --format json":
        "f1dead27686f20c60eca47f6689c90eb546e813bcecf5d0ec1de505f58000c15",
    "selftest --format plain":
        "1f6c15144bc739a0f71bbc48d77a6c8527c36fe74ab5fb622ce3b0b640040b64",
    "selftest --format latex":
        "1f6c15144bc739a0f71bbc48d77a6c8527c36fe74ab5fb622ce3b0b640040b64",
    "poincare --space klein_pointed --target fm --m 3 --format json":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "poincare --space klein_pointed --target fm --m 3 --format plain":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "poincare --space klein_pointed --target fm --m 3 --format latex":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "poincare --space klein_pointed --target delta --l 2 --m 3 --format json":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "poincare --space klein_pointed --target delta --l 2 --m 3 --format plain":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "poincare --space klein_pointed --target delta --l 2 --m 3 --format latex":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "character --space klein_pointed --m 4 --all --format json":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "character --space klein_pointed --m 4 --all --format plain":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "character --space klein_pointed --m 4 --all --format latex":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "quotient --space klein_pointed --m 2 --format json":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "quotient --space klein_pointed --m 2 --format plain":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "quotient --space klein_pointed --m 2 --format latex":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "stability --space klein_pointed --i 1 --range 1..4 --format json":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "stability --space klein_pointed --i 1 --range 1..4 --format plain":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "stability --space klein_pointed --i 1 --range 1..4 --format latex":
        "54578dbf58ec9eec1e8db94975401e2e5cd176cdaad6c50b9fbba96f43a3f830",
    "poincare --space no_such_space --target fm --m 3 --format json":
        "4a584948931577ef2ea3d0a650cd025c122c6b02e766724acf90da14fed89493",
    "poincare --space no_such_space --target fm --m 3 --format plain":
        "4a584948931577ef2ea3d0a650cd025c122c6b02e766724acf90da14fed89493",
    "poincare --space no_such_space --target fm --m 3 --format latex":
        "4a584948931577ef2ea3d0a650cd025c122c6b02e766724acf90da14fed89493",
    "poincare --space bad.json --target fm --m 2 --format json":
        "2e5642b828bfd19e4ded879c3f40acb61fb671683f7ab439acc0111a945afdb0",
    "poincare --space bad.json --target fm --m 2 --format plain":
        "2e5642b828bfd19e4ded879c3f40acb61fb671683f7ab439acc0111a945afdb0",
    "poincare --space bad.json --target fm --m 2 --format latex":
        "2e5642b828bfd19e4ded879c3f40acb61fb671683f7ab439acc0111a945afdb0",
    "poincare --space c --target delta --m 3 --format json":
        "556dbc30b9c7a987896203192f83e7a737e78e734c875507d8cdb79924c70b3e",
    "poincare --space c --target delta --m 3 --format plain":
        "556dbc30b9c7a987896203192f83e7a737e78e734c875507d8cdb79924c70b3e",
    "poincare --space c --target delta --m 3 --format latex":
        "556dbc30b9c7a987896203192f83e7a737e78e734c875507d8cdb79924c70b3e",
    "poincare --space c --target delta --l 5 --m 2 --format json":
        "b4b12cc69893e35e466b74a1a1b48d638f14d9f68b1cdee666a9a609534d3bec",
    "poincare --space c --target delta --l 5 --m 2 --format plain":
        "b4b12cc69893e35e466b74a1a1b48d638f14d9f68b1cdee666a9a609534d3bec",
    "poincare --space c --target delta --l 5 --m 2 --format latex":
        "b4b12cc69893e35e466b74a1a1b48d638f14d9f68b1cdee666a9a609534d3bec",
    "poincare --space c --target fm --m -1 --format json":
        "30427e40f7664f32ab58220e544d951830f3287b4b9f17feaf1c7ee5af286b0e",
    "poincare --space c --target fm --m -1 --format plain":
        "30427e40f7664f32ab58220e544d951830f3287b4b9f17feaf1c7ee5af286b0e",
    "poincare --space c --target fm --m -1 --format latex":
        "30427e40f7664f32ab58220e544d951830f3287b4b9f17feaf1c7ee5af286b0e",
    "poincare --space c --target cf --m 0 --format json":
        "00561279d238ac82dc76ea0605b9e2678c546421642759d09f73221e09482bc3",
    "poincare --space c --target cf --m 0 --format plain":
        "00561279d238ac82dc76ea0605b9e2678c546421642759d09f73221e09482bc3",
    "poincare --space c --target cf --m 0 --format latex":
        "00561279d238ac82dc76ea0605b9e2678c546421642759d09f73221e09482bc3",
    "universal --l 3 --m 2 --format json":
        "3dbc638fdeb710974ef5fae3e91da961167bad4d50c09a5628cb4dceebd0f9ed",
    "universal --l 3 --m 2 --format plain":
        "3dbc638fdeb710974ef5fae3e91da961167bad4d50c09a5628cb4dceebd0f9ed",
    "universal --l 3 --m 2 --format latex":
        "3dbc638fdeb710974ef5fae3e91da961167bad4d50c09a5628cb4dceebd0f9ed",
    "character --space c --m 3 --cycle-type 2^2 --format json":
        "8698b2b6c53d9f54817ed325386efeb1b7f0fc3a7ebb4f3c76aca4a196b0753b",
    "character --space c --m 3 --cycle-type 2^2 --format plain":
        "8698b2b6c53d9f54817ed325386efeb1b7f0fc3a7ebb4f3c76aca4a196b0753b",
    "character --space c --m 3 --cycle-type 2^2 --format latex":
        "8698b2b6c53d9f54817ed325386efeb1b7f0fc3a7ebb4f3c76aca4a196b0753b",
    "quotient --space c --m 4 --generators '(1 5)' --format json":
        "a989ef38657777919d456fc1ca40c5906fe2a608f93211719c70e993d6fb8925",
    "quotient --space c --m 4 --generators '(1 5)' --format plain":
        "a989ef38657777919d456fc1ca40c5906fe2a608f93211719c70e993d6fb8925",
    "quotient --space c --m 4 --generators '(1 5)' --format latex":
        "a989ef38657777919d456fc1ca40c5906fe2a608f93211719c70e993d6fb8925",
    "quotient --space c --m 4 --generators ')(' --format json":
        "34931b04dec1a450419c7767e3f7912d58eb2e8e55828a8c9ae76f7bdef86822",
    "quotient --space c --m 4 --generators ')(' --format plain":
        "34931b04dec1a450419c7767e3f7912d58eb2e8e55828a8c9ae76f7bdef86822",
    "quotient --space c --m 4 --generators ')(' --format latex":
        "34931b04dec1a450419c7767e3f7912d58eb2e8e55828a8c9ae76f7bdef86822",
    "quotient --space c --m 3 --generators '(1 2) 3' --format json":
        "b022e7c8dae7e7357e347583cb996062661d3d9c78c0947eb2abc269beb4ba89",
    "quotient --space c --m 3 --generators '(1 2) 3' --format plain":
        "b022e7c8dae7e7357e347583cb996062661d3d9c78c0947eb2abc269beb4ba89",
    "quotient --space c --m 3 --generators '(1 2) 3' --format latex":
        "b022e7c8dae7e7357e347583cb996062661d3d9c78c0947eb2abc269beb4ba89",
    "quotient --space c --m 3 --generators 'x(1 2)' --format json":
        "6096e31913bdedfd7cd155e3963030a71db4e051f7354daf887a728b9b6d6b8f",
    "quotient --space c --m 3 --generators 'x(1 2)' --format plain":
        "6096e31913bdedfd7cd155e3963030a71db4e051f7354daf887a728b9b6d6b8f",
    "quotient --space c --m 3 --generators 'x(1 2)' --format latex":
        "6096e31913bdedfd7cd155e3963030a71db4e051f7354daf887a728b9b6d6b8f",
    "quotient --space c --m 3 --generators '(1 2)junk(3)' --format json":
        "7882a10e217617894e8d1f8e270eec4c23f382923098f3d295a5806140846439",
    "quotient --space c --m 3 --generators '(1 2)junk(3)' --format plain":
        "7882a10e217617894e8d1f8e270eec4c23f382923098f3d295a5806140846439",
    "quotient --space c --m 3 --generators '(1 2)junk(3)' --format latex":
        "7882a10e217617894e8d1f8e270eec4c23f382923098f3d295a5806140846439",
    "character --space c --m 3 --all --cycle-type zzz --format json":
        "c826ac1d9c10e59a25256462aaddb7c86629489830ddc08ad5ba08bfbd39f7ad",
    "character --space c --m 3 --all --cycle-type zzz --format plain":
        "c826ac1d9c10e59a25256462aaddb7c86629489830ddc08ad5ba08bfbd39f7ad",
    "character --space c --m 3 --all --cycle-type zzz --format latex":
        "c826ac1d9c10e59a25256462aaddb7c86629489830ddc08ad5ba08bfbd39f7ad",
    "stability --space c --i 1 --a 3 --range 1..3 --format json":
        "1e255450aee8ddf048ee31facc728750264b1ca31a699a3d836e32f0600f4c8a",
    "stability --space c --i 1 --a 3 --range 1..3 --format plain":
        "1e255450aee8ddf048ee31facc728750264b1ca31a699a3d836e32f0600f4c8a",
    "stability --space c --i 1 --a 3 --range 1..3 --format latex":
        "1e255450aee8ddf048ee31facc728750264b1ca31a699a3d836e32f0600f4c8a",
    "CONFCOHOM_MAX_M=abc poincare --space c --target fm --m 3 --format json":
        "dd3c5a879cd058c818148cfb30b886219443e8d1a7eb1efa12f047d0a11de0f6",
    "CONFCOHOM_MAX_M=abc poincare --space c --target fm --m 3 --format plain":
        "dd3c5a879cd058c818148cfb30b886219443e8d1a7eb1efa12f047d0a11de0f6",
    "CONFCOHOM_MAX_M=abc poincare --space c --target fm --m 3 --format latex":
        "dd3c5a879cd058c818148cfb30b886219443e8d1a7eb1efa12f047d0a11de0f6",
    "character --space c --m 13 --all --format json":
        "1a16e0e064b2edbece576b7312c9786ed53239a23a21d33315f3680c564dd48f",
    "character --space c --m 13 --all --format plain":
        "1a16e0e064b2edbece576b7312c9786ed53239a23a21d33315f3680c564dd48f",
    "character --space c --m 13 --all --format latex":
        "1a16e0e064b2edbece576b7312c9786ed53239a23a21d33315f3680c564dd48f",
    "character --space c --m 14 --cycle-type 14 --format json":
        "1a16e0e064b2edbece576b7312c9786ed53239a23a21d33315f3680c564dd48f",
    "character --space c --m 14 --cycle-type 14 --format plain":
        "1a16e0e064b2edbece576b7312c9786ed53239a23a21d33315f3680c564dd48f",
    "character --space c --m 14 --cycle-type 14 --format latex":
        "1a16e0e064b2edbece576b7312c9786ed53239a23a21d33315f3680c564dd48f",
    "poincare --space c --target bf --m 200 --format json":
        "1a16e0e064b2edbece576b7312c9786ed53239a23a21d33315f3680c564dd48f",
    "poincare --space c --target bf --m 200 --format plain":
        "1a16e0e064b2edbece576b7312c9786ed53239a23a21d33315f3680c564dd48f",
    "poincare --space c --target bf --m 200 --format latex":
        "1a16e0e064b2edbece576b7312c9786ed53239a23a21d33315f3680c564dd48f",
    "quotient --space c --m 11 --generators '(1 2);(1 2 3 4 5 6 7 8 9 10 11)' --format json":
        "c2f3382d0168db1982794a781fca92cb31b149a9bec6e2c357253ae414fa0912",
    "quotient --space c --m 11 --generators '(1 2);(1 2 3 4 5 6 7 8 9 10 11)' --format plain":
        "63a1408643bcde62ff7ff0252f12d783a1a6cdda16eee746216794d6721c62b5",
    "quotient --space c --m 11 --generators '(1 2);(1 2 3 4 5 6 7 8 9 10 11)' --format latex":
        "637f472477119915fd9767598fbc93dda5ae8e6f89263b83bc01bfe8b318fbf6",
    "CONFCOHOM_MAX_M=0 poincare --space c --target cf --m 3 --format json":
        "40ee621864df949f58911019d734ad7b90589f0ba5fc8e571f6a544e72be7c14",
    "CONFCOHOM_MAX_M=0 poincare --space c --target cf --m 3 --format plain":
        "40ee621864df949f58911019d734ad7b90589f0ba5fc8e571f6a544e72be7c14",
    "CONFCOHOM_MAX_M=0 poincare --space c --target cf --m 3 --format latex":
        "40ee621864df949f58911019d734ad7b90589f0ba5fc8e571f6a544e72be7c14",
    "CONFCOHOM_MAX_M=13 poincare --space c --target cf --m 13 --format json":
        "2c8a0676f9d6362cb9b9fe7a1ab622d4cb8b5f31a10b360b18f70a6a4f8254a9",
}


@pytest.mark.parametrize("command", corpus())
def test_output_is_byte_identical(command, tmp_path, monkeypatch):
    monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
    write_space_files(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    output = run_line(command)
    assert fuzz.verdict(*output) is None
    assert digest(*output) == DIGESTS[command]


def test_corpus_and_digests_agree():
    assert sorted(DIGESTS) == sorted(corpus())


if __name__ == "__main__":
    os.environ.pop("CONFCOHOM_MAX_M", None)
    with tempfile.TemporaryDirectory() as workdir:
        write_space_files(workdir)
        os.chdir(workdir)
        lines = [
            f'    {json.dumps(command)}:\n        "{digest(*run_line(command))}",'
            for command in corpus()
        ]
    sys.stdout.write("DIGESTS = {\n" + "\n".join(lines) + "\n}\n")
