"""Recorded sha256 digests of ``simulate``, ``density`` and
``evolve-cylinder`` stdout.

The benchmark pins one density row, two cylinder runs and two scalar
runs, so a change to the report schema, to the CSV/JSON writers, to how an
initial configuration or measure is built or to how a cylinder weight is
printed could alter other outputs unseen.  These digests pin the CLI's
stdout for ``simulate`` on models a-d over every init, on line and cycle,
as text and JSON, and on windows either side of the word edges at 64 and
128 cells, on a cycle run for more steps than it has cells and at the
largest trial; for ``density`` on models a, b and c over their inits
(``iid`` at the default and at ``--p 0.3``), at 1, 2 and 300 trials, as
text, CSV and JSON; and for ``evolve-cylinder`` under the plain, the
lifted and a three-symbol rule-file rule, with a comment line, from
``uniform``, ``alternating-mix`` and ``word:`` inits, as text and JSON,
plain, with ``--residual`` and with ``--marginal``.
"""

import contextlib
import hashlib
import io
import itertools

import pytest

from pcalab.cli import main

SIMULATE_INITS = {"a": ("word:0110",), "b": ("word:#..#",),
                  "c": ("word:#.#",), "d": ("blue", "word:.BG")}

DENSITY_INITS = {"a": ("full", "alternating", "uniform", "ones", "zeros",
                       "word:0110", "0110"),
                 "b": ("full", "iid", "iid0.3"),
                 "c": ("full", "iid", "iid0.3")}
#: density inits named for more than their ``--init`` value
DENSITY_INIT_ARGS = {"iid0.3": ["--init", "iid", "--p", "0.3"]}

#: rule flags -> the inits run under it, each with its window options
CYLINDER_INITS = {
    "a": {"uniform": ["--length", "4"],
          "alternating-mix": ["--length", "6"],
          "word:0110": []},
    "b": {"uniform": ["--length", "3"], "word:#.##": []},
    "c": {"uniform": ["--length", "3"], "word:#.##": []},
    "file": {"uniform": ["--length", "3"], "word:zxyz": []},
}
CYLINDER_RULES = {"a": [], "b": ["--lift", "b"], "c": ["--lift", "c"],
                  "file": ["--rule-file", "RULE_FILE"]}

#: A three-symbol rule on neighborhood {-1, 0}, written where ``RULE_FILE``
#: stands in an argv.
RULE_TEXT = """alphabet: x y z
neighborhood: -1 0
// rows list the probabilities of x, y and z
xx : 1/2 1/4 1/4
xy : 0 1 0
xz : 1/3 1/3 1/3
yx : 1/6 1/2 1/3
yy : 1 0 0
yz : 0 2/5 3/5
zx : 1/4 0 3/4
zy : 1/2 1/2 0
zz : 0 0 1
"""
VARIANTS = {"plain": [], "residual": ["--residual"],
            "marginal": ["--marginal", "2:1"]}


def _simulate_cases():
    for model in "abcd":
        inits = ("full", "ones", "zeros", "alternating", "uniform",
                 *SIMULATE_INITS[model])
        for init, boundary, fmt in itertools.product(
                inits, ("line", "cycle"), ("text", "json")):
            yield (f"simulate-{model}-{init}-{boundary}-{fmt}",
                   ["simulate", "--model", model, "--init", init,
                    "--width", "12", "--steps", "2", "--boundary", boundary,
                    "--seed", "5", "--format", fmt])


#: ``simulate`` window widths either side of a word edge
EDGE_WIDTHS = (63, 64, 65, 129)
MAX_TRIAL = str(2 ** 64 - 1)


def _word_edge_cases():
    for model, width, boundary in itertools.product("abcd", EDGE_WIDTHS,
                                                    ("line", "cycle")):
        yield (f"simulate-{model}-w{width}-{boundary}",
               ["simulate", "--model", model, "--init", "uniform", "--width",
                str(width), "--steps", "40", "--boundary", boundary,
                "--seed", "5"])
    for model in "abcd":
        yield (f"simulate-{model}-w65-cycle-300-steps",
               ["simulate", "--model", model, "--init", "uniform", "--width",
                "65", "--steps", "300", "--boundary", "cycle", "--seed", "5"])
        for boundary in ("line", "cycle"):
            yield (f"simulate-{model}-w129-{boundary}-max-trial",
                   ["simulate", "--model", model, "--init", "uniform",
                    "--width", "129", "--steps", "100", "--boundary",
                    boundary, "--trial", MAX_TRIAL, "--seed", "5",
                    "--format", "json"])


def _density_cases():
    for model, inits in DENSITY_INITS.items():
        for init, trials, fmt in itertools.product(inits, (1, 2, 300),
                                                   ("text", "csv", "json")):
            yield (f"density-{model}-{init}-{trials}-{fmt}",
                   ["density", "--model", model,
                    *DENSITY_INIT_ARGS.get(init, ["--init", init]), "--n", "3",
                    "--trials", str(trials), "--seed", "5", "--format", fmt])


def _cylinder_cases():
    for rule, inits in CYLINDER_INITS.items():
        for (init, window), fmt, variant in itertools.product(
                inits.items(), ("text", "json"), VARIANTS):
            yield (f"cylinder-{rule}-{init}-{fmt}-{variant}",
                   ["evolve-cylinder", *CYLINDER_RULES[rule], "--init", init,
                    *window, "--steps", "2", "--format", fmt,
                    *VARIANTS[variant]])


ARGV = dict(itertools.chain(_simulate_cases(), _word_edge_cases(),
                            _density_cases(), _cylinder_cases()))

#: Recorded before the density report serialized itself, the simulate and
#: rule-file entries before every init became a tiled word or a product,
#: the ``iid0.3`` entries before the periodic-orbit suite became exhaustive,
#: the word-edge ``simulate`` entries before ``simulate`` stepped bit planes.
DIGESTS = {
    "density-a-full-1-text": "1137f5434fd62790f45096b8332d19148cb73229251d7e32869a0eebdf84d865",
    "density-a-full-1-csv": "28ceb6b008a3eb98ff6f80ed68df884b324e205896d5a45594f8b7f68080e4ee",
    "density-a-full-1-json": "9ce1c9cd0eabea274b3569b544dbfd17c0eefaabece11938aeb4fbad504a4326",
    "density-a-full-2-text": "5bbdaf8b56d98ac306a0c60730efdb7ec7a918d37e28422ef4ef6f5d8adab8d6",
    "density-a-full-2-csv": "51b9618ba2616b77b035a37230e70dbd423fe5ae098662639ae2fd2b70d37072",
    "density-a-full-2-json": "c778676eb1759afe13b0f6a8201b1c74691c026ea9f55ec4648f7ee24290da35",
    "density-a-full-300-text": "f681ecfb52c12cc47a31186b7f3711f94b42978bf9392c41195477c23dceb144",
    "density-a-full-300-csv": "413c5573015164dcd398252e202181ba087656bf6c9d890beffd34e3950f54e4",
    "density-a-full-300-json": "b254ca035e2c9da4fbcfd919adb21d643cc05647538bf1663e2c1b82e87920f1",
    "density-a-alternating-1-text": "12a8900f79677ebdccfe7caf41aaa42c89cfe5c2e92f167ec1518303c19b1eef",
    "density-a-alternating-1-csv": "2169ae21ad0a9483254881694609126d3ce5487119c9da539b031aa80dbdfa11",
    "density-a-alternating-1-json": "5b3a3db1a7eed0ecef581aab0cee84eb329b7807a08b0019b9aed6587cb6eb44",
    "density-a-alternating-2-text": "fc2b5939d5dd5d369cc809e7f29386961becfb985a40ac0a77b6639ff9122c1c",
    "density-a-alternating-2-csv": "a4af1ce9a6b1d634e364c866ae668dfff969f4d7ee1cd31c9667746ac6685914",
    "density-a-alternating-2-json": "e371376241b2e968b39ac789c8273101252d9b92d454b49bb9b435ff51927868",
    "density-a-alternating-300-text": "b2d9f0826093d2e5d7ef6199b08697da8c967ceb62ac8e50f03037f6e9d24332",
    "density-a-alternating-300-csv": "d03ecf8e7ac4eaf3194d45f1a93e9d8a27a29bf105e7ccc7c8c49daa4e6b4745",
    "density-a-alternating-300-json": "36d5f8a707f0db55d93d9417538587a69baecdae37081b252984b55313ec068d",
    "density-a-uniform-1-text": "96206816f83496bf95c231da593ab4054e811d5478ab733126577b1457715218",
    "density-a-uniform-1-csv": "5836c0eb189baf6e5dcd3c6f1571a04857f263e49e866b459dada93722b34c77",
    "density-a-uniform-1-json": "b4bac197fcaffa62d7fa583de07bd089e82de0a09a08c94eb5d8b85c09ac5894",
    "density-a-uniform-2-text": "495a3f9c1e4ce225d4e20153dd5fe6eeb6d215c62377503a277373bec6ad7630",
    "density-a-uniform-2-csv": "0386989b7d35055bf0b4afa77c95363e9fa0c71987a16cc46e0d7b5c49505378",
    "density-a-uniform-2-json": "a17455158883e113a7ccc400a337d27330c4f34ce4e7be9aa02b502c2f5ed509",
    "density-a-uniform-300-text": "2b43d0b50a939e3d032968348446ea3742948569cb01ca4dc6d74c2b4b900432",
    "density-a-uniform-300-csv": "411779acf41d55100de624449e2a4b718064a5baafbe9afe5e86a5001392f70b",
    "density-a-uniform-300-json": "fe19c0db8be64850d7cbbb2314cfb9487cccc8aae51fc12fc4240b213292f0a4",
    "density-a-ones-1-text": "1137f5434fd62790f45096b8332d19148cb73229251d7e32869a0eebdf84d865",
    "density-a-ones-1-csv": "28ceb6b008a3eb98ff6f80ed68df884b324e205896d5a45594f8b7f68080e4ee",
    "density-a-ones-1-json": "9ce1c9cd0eabea274b3569b544dbfd17c0eefaabece11938aeb4fbad504a4326",
    "density-a-ones-2-text": "5bbdaf8b56d98ac306a0c60730efdb7ec7a918d37e28422ef4ef6f5d8adab8d6",
    "density-a-ones-2-csv": "51b9618ba2616b77b035a37230e70dbd423fe5ae098662639ae2fd2b70d37072",
    "density-a-ones-2-json": "c778676eb1759afe13b0f6a8201b1c74691c026ea9f55ec4648f7ee24290da35",
    "density-a-ones-300-text": "f681ecfb52c12cc47a31186b7f3711f94b42978bf9392c41195477c23dceb144",
    "density-a-ones-300-csv": "413c5573015164dcd398252e202181ba087656bf6c9d890beffd34e3950f54e4",
    "density-a-ones-300-json": "b254ca035e2c9da4fbcfd919adb21d643cc05647538bf1663e2c1b82e87920f1",
    "density-a-zeros-1-text": "5f8ffa9fefaf3611db8478b257926925a217a78ecd96b44b3270aad1234a7d65",
    "density-a-zeros-1-csv": "28ceb6b008a3eb98ff6f80ed68df884b324e205896d5a45594f8b7f68080e4ee",
    "density-a-zeros-1-json": "9ce1c9cd0eabea274b3569b544dbfd17c0eefaabece11938aeb4fbad504a4326",
    "density-a-zeros-2-text": "2fe5546e8c75e40ff6c4c66d9e333d1d7bb05b334354fcb055cace2c6a4dacf6",
    "density-a-zeros-2-csv": "51b9618ba2616b77b035a37230e70dbd423fe5ae098662639ae2fd2b70d37072",
    "density-a-zeros-2-json": "c778676eb1759afe13b0f6a8201b1c74691c026ea9f55ec4648f7ee24290da35",
    "density-a-zeros-300-text": "5795b7723d0767fd26448f273ba7877d08738475a301a3040a48161424789bf6",
    "density-a-zeros-300-csv": "413c5573015164dcd398252e202181ba087656bf6c9d890beffd34e3950f54e4",
    "density-a-zeros-300-json": "b254ca035e2c9da4fbcfd919adb21d643cc05647538bf1663e2c1b82e87920f1",
    "density-a-word:0110-1-text": "b4f525cd5b96f9763d84368903e82f90c50f1fbce3430ecd756c76ea2d2c5eac",
    "density-a-word:0110-1-csv": "8f9bf0a91d8845383b30c6e084936398a4c6f9bed66b66bfde435be4f3b0b226",
    "density-a-word:0110-1-json": "d72f3526804915af7ada1a78173c63e9786b86fe0e10225eee0cb4389df65295",
    "density-a-word:0110-2-text": "5afd037c6fa426e7d6340ea8b5326f276e1deeea3b28e731fa184d0a3c8f996a",
    "density-a-word:0110-2-csv": "24a7c03e94a31b1d1b5c0d332dbea33e5e12ecb3f403210bd795547d9368da34",
    "density-a-word:0110-2-json": "fe3cc0511d7821e8186f5cb4f5c25d44b374671bb38445e9f55ff971787e2366",
    "density-a-word:0110-300-text": "c549c6b2d791baef1a2115555a477cf1e35ffdce9eb4b2fa6238ec9c0e6f84ab",
    "density-a-word:0110-300-csv": "135a69f46b47b8a621dec9e160bf464fdba3004a5d22dab18805daca09fc01a5",
    "density-a-word:0110-300-json": "65ebf51e2405476ac7b55793100aa849d044a6c20f293a1a9fb417ff88c7f7d4",
    "density-a-0110-1-text": "b4f525cd5b96f9763d84368903e82f90c50f1fbce3430ecd756c76ea2d2c5eac",
    "density-a-0110-1-csv": "8f9bf0a91d8845383b30c6e084936398a4c6f9bed66b66bfde435be4f3b0b226",
    "density-a-0110-1-json": "d72f3526804915af7ada1a78173c63e9786b86fe0e10225eee0cb4389df65295",
    "density-a-0110-2-text": "5afd037c6fa426e7d6340ea8b5326f276e1deeea3b28e731fa184d0a3c8f996a",
    "density-a-0110-2-csv": "24a7c03e94a31b1d1b5c0d332dbea33e5e12ecb3f403210bd795547d9368da34",
    "density-a-0110-2-json": "fe3cc0511d7821e8186f5cb4f5c25d44b374671bb38445e9f55ff971787e2366",
    "density-a-0110-300-text": "c549c6b2d791baef1a2115555a477cf1e35ffdce9eb4b2fa6238ec9c0e6f84ab",
    "density-a-0110-300-csv": "135a69f46b47b8a621dec9e160bf464fdba3004a5d22dab18805daca09fc01a5",
    "density-a-0110-300-json": "65ebf51e2405476ac7b55793100aa849d044a6c20f293a1a9fb417ff88c7f7d4",
    "density-b-full-1-text": "419a04aa31a2b9d4b480e9d2cd014208a25147c162eb61bc6c963f6166a5ac9d",
    "density-b-full-1-csv": "d4f76b38715c056b37a53e94a3d2509d7e99b7514e583b7fe64084d245cb8547",
    "density-b-full-1-json": "bedb7d1b3858b025d114132ebce3043587d98b1410bdf1db72001cfb8df45ded",
    "density-b-full-2-text": "e23a38bdb0fffbe7466d47e9b0b7408e9af83947fdc05e0c1223d1c1c5bdf5ee",
    "density-b-full-2-csv": "547886fa72309ef7d9908d850eb36b6827f17fb5133aead4365f4681660dbaa1",
    "density-b-full-2-json": "5f348ea11794f770506c1bdaf78754ac4a0399ffbfdf6fda7cc7ef774eafdf9d",
    "density-b-full-300-text": "e10ddad7d4b0e4f087e6611629bb90a078738af05661d4fbd19a6b277111b459",
    "density-b-full-300-csv": "1f5e0c14beaeba66ed675227d64185c75ff475f28548b356b879535998389b70",
    "density-b-full-300-json": "a3343303d98243a5747baa6f485c584998c063696473b5c8bf44b0242c78f322",
    "density-b-iid-1-text": "cdab77c17ba9e93b49c25b418a49f16d121dad1dbcc3e736aac630c65b750fc3",
    "density-b-iid-1-csv": "4dc2827f03a673e581923ca93e3a3c352580777d6750caa61903951fd8b84e69",
    "density-b-iid-1-json": "b916367ffc31a9fe5ef83f383aec45c0af3a9a95b53e0a80da07cf30f576723c",
    "density-b-iid-2-text": "4b36ee52375bc73bb6fb0de34bacf855b73f061023f0cc4b4c5d1a0df90fc415",
    "density-b-iid-2-csv": "59cf0dcf8a2c0326056389941487924accb1d443c5e673dd25a4d11f97860993",
    "density-b-iid-2-json": "4ae5211971e8de43b89c6e8ef675c07d9371d92effd36859eb42004dd6c27c76",
    "density-b-iid-300-text": "8f3a561f41a393cffe9c0ea3cd5f9be16a560f76e08d07ac3d70736e9894efe4",
    "density-b-iid-300-csv": "d52f71591992798c31d7896ca58ae13f16655ce64215ec1461dafc7708e5f3fa",
    "density-b-iid-300-json": "63d042d75f4836251a90950b240f330b8f76bf5416f8f1749b066abc3f34df33",
    "density-b-iid0.3-1-text": "2cc804635e591e20090b969de641cad277efc7747a166e09986dd191a30e8096",
    "density-b-iid0.3-1-csv": "9437fc9b2934311112e825b7d5982bb87d772f648040d03f0f2356b15809be3a",
    "density-b-iid0.3-1-json": "054d82107973fa17da43e735f350bdcaadbf728e2eca117d96027d3dfb28a4c2",
    "density-b-iid0.3-2-text": "132fb205717711e34ecbcf23ea70360746d1c95657cb62ea850234fcdc98fbed",
    "density-b-iid0.3-2-csv": "27308e2525a6cb5f16cfb2487d32d80b25441e0e61d8c786085307e91cebabc8",
    "density-b-iid0.3-2-json": "e0f0ffa43b7ac4f442d33c797dffa513d6df88ed04b4299614f785eeab93f188",
    "density-b-iid0.3-300-text": "8f95eaf528f282903083d339a735bc4a6293435d33b67ac5d5af1ed64b65c994",
    "density-b-iid0.3-300-csv": "570adf1de1cd4729281f196b4d55dd9a9b92c61047564a5b9839a8e089c4e5b1",
    "density-b-iid0.3-300-json": "36fac9d6b44568be3352c9398dda1980d3c87fa4d3f2dd2181947dc8d85882dc",
    "density-c-full-1-text": "b2e1da880e044c6d7e06b1a1889ddb7973c8dfb33c382da3e4046b22759b8774",
    "density-c-full-1-csv": "95c3d5687cb32f72e1b5e70013abc69313327a3f278b1a4bb872135aa511ba42",
    "density-c-full-1-json": "61ed55bf0bd69a6381e2b0168b8819bca896d0862748dd29953d7070902dd348",
    "density-c-full-2-text": "663b80fa6a97229882ab36da5453ccfaa21c1cc20a1b1468bc86608e7e0f06b1",
    "density-c-full-2-csv": "67f6943ea9b7a7fa107f6d60fe423102380fe3b474468428dc66ed30afd36115",
    "density-c-full-2-json": "29218d71e9185d26941033e10e77b9d36e3e169a51508b5a3cef755c6bbfc7b8",
    "density-c-full-300-text": "51d72207a2c3d499de86e85a794eb9741a0ac6ddb2396e50363247261b75eed9",
    "density-c-full-300-csv": "5e4a107c94c4354c3b885d8d6bb3abdd174a683a5d160a3067fce8eb35a6f1b3",
    "density-c-full-300-json": "49ef2444d0fe79d8f69a915c4bd57dd9c45921c6c027381a5f7dd30c8af61c9f",
    "density-c-iid-1-text": "11de177012b99ab48fae579fc28310a3b110fb4bcc683177cbe20b531ecd5606",
    "density-c-iid-1-csv": "44335ae5f73791e740b3ad488a78e7f425ba01006211b8de92edde1a60e159fc",
    "density-c-iid-1-json": "d47d0bdf3ff2c93e68ef62da14a2e088cc4483195f6163f1c81a6b493171f1fb",
    "density-c-iid-2-text": "d1e7bb648c55b8a0eb5e6e1a502ba1801078659d6e210c5552a2499122e14296",
    "density-c-iid-2-csv": "6c06b1b7d8d13499bd91efda3538c76e2a5591d1a49ddf1f67a7d36ac9fdb295",
    "density-c-iid-2-json": "715deeccbb72585c3c244e7ea30a93e9287abb04d36cb4a1d9c7a59a91eb8f68",
    "density-c-iid-300-text": "75cbfec43204276b2958a23b870acc1d76a2c3612c6c57cc583a828e1094ec67",
    "density-c-iid-300-csv": "2e17a8a69486040ce9b5ba0b5b00cb193f67959f35a06efd30e335a292bfecba",
    "density-c-iid-300-json": "4345c27481c3c68a8709267dc23365b2cdcad1c7c243e5fc06dae674b14e8b09",
    "density-c-iid0.3-1-text": "43f0bd49f1fa25bd6cd839125db6a824126e705331b2c5042077ff8ef939c2ae",
    "density-c-iid0.3-1-csv": "d30e9b72e6d821dae860075015e789179fbdc43c741905ca82a3483eba1d2b77",
    "density-c-iid0.3-1-json": "93b527ae9faac6fea84223a92dba2cedf5c0c52791d28006d8492de072d45b31",
    "density-c-iid0.3-2-text": "4a8983007c0399c0a46b45122d7f268dbcbc4eac6dd91c9e97a5fb98a88d0b0a",
    "density-c-iid0.3-2-csv": "c094eb1cc3516acb248e8f90b07800e40bdf5ae27e8f7cc52a8da67718ee2a4c",
    "density-c-iid0.3-2-json": "2ac78e805b192d0174cac508213884e77d1c1ab670350561239c4a438159a3f6",
    "density-c-iid0.3-300-text": "4cd8e4fc46215b11d3e06c8c4380bc2db9d7aa30c6d0ebdc7f52f9e4e1a5e63b",
    "density-c-iid0.3-300-csv": "a5c61a39b9e4018a90a6505ad99a438dca40020c3e67afe0d443043889c8444f",
    "density-c-iid0.3-300-json": "c3c96269289de71c7ca29f27c7abf0b2ff6a4bcc27bbda6de53a902fde2431b0",
    "cylinder-a-uniform-text-plain": "8a1eb38c99a50fcd7b9c8e32cd717a90bfc5b7edce6b9883d509b8a234c16840",
    "cylinder-a-uniform-text-residual": "e6125a4d52d80162cc0e6b6d874765cc5085363504e3390e3c895bfe3187f2f8",
    "cylinder-a-uniform-text-marginal": "b5565bacc4147aeff6d3f4b84994f8953d9e4fa5696f9dfcca93e86c1cc7a0c6",
    "cylinder-a-uniform-json-plain": "3543d6f6d015de7ced70c9aeb170da221308057651abd50a9cf690b65401947c",
    "cylinder-a-uniform-json-residual": "0be31ef4c671034804965d1624d03b3673495f54d7407be1c0bd0fa6b5d3f394",
    "cylinder-a-uniform-json-marginal": "73f868cfc572400fd72ae1125242a863e9a15ff03c712a8ddf750925230a49c3",
    "cylinder-a-alternating-mix-text-plain": "d95154aaaa90327539a38504bbc7f201c3fa7a27fb81fa1aa12536ee77766a36",
    "cylinder-a-alternating-mix-text-residual": "1a5115f0c4a3439f8de3affee71b5efb1e4fc42f4de1b5c619e176bd96de7a93",
    "cylinder-a-alternating-mix-text-marginal": "b5565bacc4147aeff6d3f4b84994f8953d9e4fa5696f9dfcca93e86c1cc7a0c6",
    "cylinder-a-alternating-mix-json-plain": "f8654513e07098f2497c141c130dd78f182fc71a11082b0142663c8ce327ba93",
    "cylinder-a-alternating-mix-json-residual": "4983af6b443c71f90f48eacb0523c55cdd809d4d86365f861f96b8d8939ac993",
    "cylinder-a-alternating-mix-json-marginal": "73f868cfc572400fd72ae1125242a863e9a15ff03c712a8ddf750925230a49c3",
    "cylinder-a-word:0110-text-plain": "daccf27207cff949c5f620f55f10d1eba007b5a089052de7b7712265c15ed56c",
    "cylinder-a-word:0110-text-residual": "cb02406c47b96126680a8029ce243564577eba7537e7726f2875774aa24c2d69",
    "cylinder-a-word:0110-text-marginal": "6f5215aa153e199c19b2d7cf90326c4ac0737ede378a3a8ab7ba5328e99a5174",
    "cylinder-a-word:0110-json-plain": "51f76d9d56d481632b459b4b1b7f9207b6ad07c86823a2d9228a84eaafb51004",
    "cylinder-a-word:0110-json-residual": "8c08d35cb8c5ab50d04163fc4eeb10f6cb40db4a66c72d2897a02183b0dc6087",
    "cylinder-a-word:0110-json-marginal": "540c56f133526a22b029726963de88e26a665381f34b1c62979b29140aaed304",
    "cylinder-b-uniform-text-plain": "29c23e1fba0bf5a7ccd4d7b003caca0cad82fddc85a7c07600e1c8ec2390ac00",
    "cylinder-b-uniform-text-residual": "69d5c9161d84b281d8fdb22e99b1477b1655310233d1f422f194a5bdf9eaa558",
    "cylinder-b-uniform-text-marginal": "29c23e1fba0bf5a7ccd4d7b003caca0cad82fddc85a7c07600e1c8ec2390ac00",
    "cylinder-b-uniform-json-plain": "7f97f0255e0571b52143f7e04d7660eff5528f9e25267554f90a4eda344fcb32",
    "cylinder-b-uniform-json-residual": "71cc86a9ffcd6f0328decfc66596cb031704ee1ccf81994e12c7042dfd458417",
    "cylinder-b-uniform-json-marginal": "7f97f0255e0571b52143f7e04d7660eff5528f9e25267554f90a4eda344fcb32",
    "cylinder-b-word:#.##-text-plain": "efa8f2fd2441738b470551bbcba1c2711426e11e24b3910194a7b45dae9ab190",
    "cylinder-b-word:#.##-text-residual": "619f64aee00e8a0fef64319772429b2ca84382345d3f417db57bbfe62c974754",
    "cylinder-b-word:#.##-text-marginal": "68ca9373adc61448f894de297777e095edccc6b0143bc23beb8e54ec206302e6",
    "cylinder-b-word:#.##-json-plain": "74438677231447c9289c024fa0a26717beb32480f95f7b05ab494b985b1366b4",
    "cylinder-b-word:#.##-json-residual": "80c6166db895b3c386bcc7849c8e10440a0455e994d3d84c6d8bffb4a1213cf3",
    "cylinder-b-word:#.##-json-marginal": "a8bf0249f23118765ed79472d3edc9015075ba97a17905d7338b8b83c89593c3",
    "cylinder-c-uniform-text-plain": "f0ed6f80505e2392e3d4bb98fe20caf7e3cfd7a7478cca54df1d3ba27da5498e",
    "cylinder-c-uniform-text-residual": "18125151751e6b89658ff276f61bc16863d7342b77fce101330c709e3f45f685",
    "cylinder-c-uniform-text-marginal": "f0ed6f80505e2392e3d4bb98fe20caf7e3cfd7a7478cca54df1d3ba27da5498e",
    "cylinder-c-uniform-json-plain": "b2295214117e79a144ed0b4b8ffbee3e5f84f08127be01ec847d6b161972548a",
    "cylinder-c-uniform-json-residual": "522634e4adff9ba4d99ad52114c7311d8001b9a01386cab3c2414ee272bb0cfb",
    "cylinder-c-uniform-json-marginal": "b2295214117e79a144ed0b4b8ffbee3e5f84f08127be01ec847d6b161972548a",
    "cylinder-c-word:#.##-text-plain": "cc3e186583ff992ff878604a7fa8816e9cf82ca7dd1f1d680e4223142f413b49",
    "cylinder-c-word:#.##-text-residual": "21d00aa7b951c8d2c6d51f649eadc0ecd778e5257029d0747628a5db71fc1997",
    "cylinder-c-word:#.##-text-marginal": "d41bf61309b0a826782a2964f7b75c864e3b0b685039843e47d27cb858b0eec6",
    "cylinder-c-word:#.##-json-plain": "13d9dddbd8c04e75f93b8304f37d0caf92141d27f60fe27c8eca7a94113990a2",
    "cylinder-c-word:#.##-json-residual": "12623447d02cc4bbfadb5043fa356c777baf66bef7e2402df6aa75ee7794f6c1",
    "cylinder-c-word:#.##-json-marginal": "ad60ff2e32e85298e7a037206ae26751fed411af1681396a704de2eace28edca",
    "simulate-a-full-line-text": "f9a12b316d488cb32d905a9567817b1fcba595a415dc5fd278c76de18c6f737a",
    "simulate-a-full-line-json": "410816e55f93574fe0420a00f24f4334e439ace3dbf83c0d326e6c31e2250e0a",
    "simulate-a-full-cycle-text": "ababa52b0a2e4f51b4d98419805a428205199bb5956529e7550486f912678d82",
    "simulate-a-full-cycle-json": "6d4950ec0be2aa9b3d7d3ff9c637173d63f85c5d15e557decc2f987b7cd87caf",
    "simulate-a-ones-line-text": "f9a12b316d488cb32d905a9567817b1fcba595a415dc5fd278c76de18c6f737a",
    "simulate-a-ones-line-json": "410816e55f93574fe0420a00f24f4334e439ace3dbf83c0d326e6c31e2250e0a",
    "simulate-a-ones-cycle-text": "ababa52b0a2e4f51b4d98419805a428205199bb5956529e7550486f912678d82",
    "simulate-a-ones-cycle-json": "6d4950ec0be2aa9b3d7d3ff9c637173d63f85c5d15e557decc2f987b7cd87caf",
    "simulate-a-zeros-line-text": "22b8237b96c7d05f6d716307c837d47205edae1996f2691b7901cc4244f6c357",
    "simulate-a-zeros-line-json": "34a932ac0ad53d85aa00eecf5029f4996567331e5ac6e1ef5da25077ae3602fe",
    "simulate-a-zeros-cycle-text": "39030f9c9c1c58e53c6add5021135de62b5fdac2790adb8045504cc98f605c6d",
    "simulate-a-zeros-cycle-json": "d13f1ea9626b9e44cdb9dae1d3f01034a25b8888fdce6b35faf24dd6f58355e7",
    "simulate-a-alternating-line-text": "220bda12067d5adc2db79edab7b92b78340b5a08445b8b87f5c5475c29094719",
    "simulate-a-alternating-line-json": "b9765ba7c5c5e309959700adddda6269a1b219de1f5117a514491656f6f38c6e",
    "simulate-a-alternating-cycle-text": "bf8432ac6d0b9d531b7825c0dea5df03b02d782065214c381f41169d1aca89f6",
    "simulate-a-alternating-cycle-json": "30fad0c925b85e796867fc425b40a0dd3f3ba49b99c52d59644ffbe1d1243394",
    "simulate-a-uniform-line-text": "db700a82eabb129a0476b7ef474210c8d314807f8a38c9a75e02ce37425cb7ee",
    "simulate-a-uniform-line-json": "5c67d4b3fcd53a48de83d7817298df61184f146b3b802f47a3dafec0f5bf6b5c",
    "simulate-a-uniform-cycle-text": "d4f00cb2d4a6ece70f21708b3fb94d4baabcff2608a4f098e63e1183da8dcb4f",
    "simulate-a-uniform-cycle-json": "962ce0092eca2140d5ba042c6cc50051652d7b4307de231f312ebf809f9bbde7",
    "simulate-a-word:0110-line-text": "9d2e509bb65ce62a6247b7eff2e0285750e80f30c296589cc167cd879f29702a",
    "simulate-a-word:0110-line-json": "5f286869577ee615575fc8ffd60095255889d9ce816775134d5719eeab560366",
    "simulate-a-word:0110-cycle-text": "c90ff2c2342c2788b9c965dc2d2de089dadafb591a7356b4f005a2281a9f73f0",
    "simulate-a-word:0110-cycle-json": "2eda92eac44bd9db5c92d8fd1f3b0c92b1a0eb93622c5b36f2565f00d70fe90b",
    "simulate-b-full-line-text": "32ad346d0c239269f688e91eeaf102b54dbccde602c5088c9c09e8f121f18ce8",
    "simulate-b-full-line-json": "65e1eac4f7f7491db7ea0b00a0f45e905ff44af66012e72aa6ac56cb0e0574ee",
    "simulate-b-full-cycle-text": "71759647bca9ef1e0e2d3cc86588e4d11951c9a9384ac67fcf4adbefc249fe1c",
    "simulate-b-full-cycle-json": "1551a901e57d6c93d94d884154a0166e29530f7acfa41597ff57178c971d458c",
    "simulate-b-ones-line-text": "32ad346d0c239269f688e91eeaf102b54dbccde602c5088c9c09e8f121f18ce8",
    "simulate-b-ones-line-json": "65e1eac4f7f7491db7ea0b00a0f45e905ff44af66012e72aa6ac56cb0e0574ee",
    "simulate-b-ones-cycle-text": "71759647bca9ef1e0e2d3cc86588e4d11951c9a9384ac67fcf4adbefc249fe1c",
    "simulate-b-ones-cycle-json": "1551a901e57d6c93d94d884154a0166e29530f7acfa41597ff57178c971d458c",
    "simulate-b-zeros-line-text": "de6c79b6e058c112e3440b55404fc39b3c9684b6c22079a31fe059499be5d21f",
    "simulate-b-zeros-line-json": "388b54a88d6000b4a21ea177d5a882b4284f0ee487de9849793736c4b644eccc",
    "simulate-b-zeros-cycle-text": "567085897bb08020f765301bd45f81720d67c01b13434e8cd233aab453098239",
    "simulate-b-zeros-cycle-json": "dd87751294c2243c91e86a68ad79492b47081794122fe20cbd6583cd5e56cf0c",
    "simulate-b-alternating-line-text": "e8ef945db0ba571bd27bdce7709e180e51bf49289c0298c755ef387d4d5cdc45",
    "simulate-b-alternating-line-json": "1fe6f4071d532cccfc4517486d449a9ca915554e008975bd346a1fdc37789f7e",
    "simulate-b-alternating-cycle-text": "09bf8396e82a4d4d0d948daa93011c70d4ccda67290164445da0cf11dfa98065",
    "simulate-b-alternating-cycle-json": "a318ea34e2d6e5af87c25803057f84e363df13eacc66a3f6586f85471f492fa3",
    "simulate-b-uniform-line-text": "258c1ae4ff0c21876b64bc3d1f1d752468fa8c6999888a31efc20e1a19110413",
    "simulate-b-uniform-line-json": "87b26966b8b08e37e6a414b403a4f18d3bcad2047ccbe0d8b86227caf8d845e7",
    "simulate-b-uniform-cycle-text": "c3777670569284d927efde8a3d4ebe922e43932fa1e452581329f3af2d07042f",
    "simulate-b-uniform-cycle-json": "65147035a74b9530a2b72b60f79815290a3826ef5474f0245af44cdfa71d37a0",
    "simulate-b-word:#..#-line-text": "d0e5f0b6260730a40d32d821e516a4c6eb70543d043b17b68b6cb688eea8d95e",
    "simulate-b-word:#..#-line-json": "f080b53cd835b5e47aef530f609474475f474b4b1eb2716721654454478ea51c",
    "simulate-b-word:#..#-cycle-text": "448619185603ecb7656237e76ed5f8c3070de59dc245e3426337ebe714a36d8d",
    "simulate-b-word:#..#-cycle-json": "e8b6450ed9a0fd6d1fcdd305f72d8257df2245cdacdd5067d729183047f4df7e",
    "simulate-c-full-line-text": "97d26fe366e653bdecb451658c9d0cd08d457ce0064d2e66cfd9ac9475f436af",
    "simulate-c-full-line-json": "15f447f9f535379653fa7d7a82bc23a7d5e837a170334ee501acdccefca5cfc2",
    "simulate-c-full-cycle-text": "aa0af7207a9f2dbd0365dc1c5cd3356876f1376b23c6d6d00918845b7f27d9ee",
    "simulate-c-full-cycle-json": "de9d96651e563e803f5615ccd2df8f1cbd1e9845d939621bca812722ad7a3142",
    "simulate-c-ones-line-text": "97d26fe366e653bdecb451658c9d0cd08d457ce0064d2e66cfd9ac9475f436af",
    "simulate-c-ones-line-json": "15f447f9f535379653fa7d7a82bc23a7d5e837a170334ee501acdccefca5cfc2",
    "simulate-c-ones-cycle-text": "aa0af7207a9f2dbd0365dc1c5cd3356876f1376b23c6d6d00918845b7f27d9ee",
    "simulate-c-ones-cycle-json": "de9d96651e563e803f5615ccd2df8f1cbd1e9845d939621bca812722ad7a3142",
    "simulate-c-zeros-line-text": "9666c2360416f4ae9a030802399a43905ab2b32881870877036a32c1599bb596",
    "simulate-c-zeros-line-json": "3723147c503d5636a25c2a160a01bd6e16bef515c37fc8077d82e7c4e76cedfb",
    "simulate-c-zeros-cycle-text": "64dc3455f2fdfc6c226ed3d6bdc6f3ad39fcc4c249e5bcc32b40ea8754332221",
    "simulate-c-zeros-cycle-json": "34eb327395a81120d80664d1d7c093cc88caf1fd569f7a583fe41020d9e024cc",
    "simulate-c-alternating-line-text": "a7f1f8aa3c76ff07262c1fdb927848c84e7eefc8343e06b8b8bd3a3d4f7e4a31",
    "simulate-c-alternating-line-json": "bbff7db1c940484d8e9b32a63e3369ac2ff5fda79c98ccbefe0f5f3303d75247",
    "simulate-c-alternating-cycle-text": "2a86486eb610470aeed276153975c25ca45d6e9357900181d85a67d1e582c011",
    "simulate-c-alternating-cycle-json": "dfaa22e3c8adc11315a00cec8182e64ff6ffc1a8d715f5aa179c3d6d221b9cb7",
    "simulate-c-uniform-line-text": "97d26fe366e653bdecb451658c9d0cd08d457ce0064d2e66cfd9ac9475f436af",
    "simulate-c-uniform-line-json": "15f447f9f535379653fa7d7a82bc23a7d5e837a170334ee501acdccefca5cfc2",
    "simulate-c-uniform-cycle-text": "ed9515d3dcb2927a69a01a04f54d745b8b0998819bbb5ccbff4b7a2f800c2c72",
    "simulate-c-uniform-cycle-json": "b42afbc1e620c7d0600735b31029890fadd4150713938f27d04fc68a4259a14e",
    "simulate-c-word:#.#-line-text": "f250b3c95583bf405685330a3b04de853ca614e31c51af080dc41f3b3f12207a",
    "simulate-c-word:#.#-line-json": "7619c022343369fab7a76733fe7c74e29902042753d475521221cbf226696cd2",
    "simulate-c-word:#.#-cycle-text": "fd5de0bbd8345ff485e2846ba516b212033e73df672b60485f4f5d8a3487d7f5",
    "simulate-c-word:#.#-cycle-json": "7723b9fecdb561b4748d484c90f5d40c12ac99a70b5ff742c0da2345d0005ab8",
    "simulate-d-full-line-text": "59de0bc86711ac3219ae4aa423b36ed31985f7c8b28a8bff0601e7d93782d243",
    "simulate-d-full-line-json": "9bdba159d86247343627078e5180c68be25e04a4b58a10910a6a40fb21994b20",
    "simulate-d-full-cycle-text": "c15fee193c8fe3c43aa9c4f8d63a0b4e26651fd10253a1d5b4cbda45b75d7ecf",
    "simulate-d-full-cycle-json": "e5fed9c5ae05670b94f36054bf53d68223fd7802d919aa7014b62bec3e2883f4",
    "simulate-d-ones-line-text": "7b254a73a179842286599e85a23a79ed3307840f712b22aad032be12394abf26",
    "simulate-d-ones-line-json": "f2909348d53cfebbc113a64a100d337feb87c280aa1f11278de3c2898fa33923",
    "simulate-d-ones-cycle-text": "c50bec758038f864f9a514eae362eef707ebb3584fd8eb399f0160eb22609fcd",
    "simulate-d-ones-cycle-json": "3d9fa91eeb52174417b429a7bbdf15e297de50d1bb4dec798679b3baf18bbc6b",
    "simulate-d-zeros-line-text": "296365755c9b325839ff3e7d3793c0f6663436dd88d5f54745d159d05d775902",
    "simulate-d-zeros-line-json": "024885c0bb5a59d85634c33ceac42478d16f52a80e121bea6ec4305625376851",
    "simulate-d-zeros-cycle-text": "f81919b93d95668d06c49fe75b8ead8f88e3c670241790b90a8ede7637ff01cd",
    "simulate-d-zeros-cycle-json": "7562a7ec407f25bdde83a698068e3e79ef815d5bf11ccb4cac0d362e3a0d3217",
    "simulate-d-alternating-line-text": "f88d68c37623f067660743394af8bcc70855102c3e21929b46e149fdb79e4dd8",
    "simulate-d-alternating-line-json": "9eefb9fb186c1703d201f07df191430773238905c28e0f5ab68e0f5014ee5204",
    "simulate-d-alternating-cycle-text": "1ad07f3c7e08893d6b0b80b97ed50e5a098bcc89c0fe2d6471de7de7ab901897",
    "simulate-d-alternating-cycle-json": "7106c377db862fe7d07c19aaed86e76e6da0391f4bef5ce3121d0aa42e4819c1",
    "simulate-d-uniform-line-text": "6999dec51efb23af1959867c049e434aeff7e6933728889ab52af6a19e658770",
    "simulate-d-uniform-line-json": "8189dd943725e92bfa3db06691674192e60ae4454338072830fce76bdc849294",
    "simulate-d-uniform-cycle-text": "2de5ab639174575b2ee45ab92fc984898dc1942d029f3dc4f9895562c17f4a7c",
    "simulate-d-uniform-cycle-json": "8820379e57dc869d486273d2d89e49fa0e10bb0390767efd3c29a78822945190",
    "simulate-d-blue-line-text": "7b254a73a179842286599e85a23a79ed3307840f712b22aad032be12394abf26",
    "simulate-d-blue-line-json": "f2909348d53cfebbc113a64a100d337feb87c280aa1f11278de3c2898fa33923",
    "simulate-d-blue-cycle-text": "c50bec758038f864f9a514eae362eef707ebb3584fd8eb399f0160eb22609fcd",
    "simulate-d-blue-cycle-json": "3d9fa91eeb52174417b429a7bbdf15e297de50d1bb4dec798679b3baf18bbc6b",
    "simulate-d-word:.BG-line-text": "da91e45b1d24cfa6e7497ae5f167c50d9f7b14b683453b884563690a1fd72b83",
    "simulate-d-word:.BG-line-json": "a18d556ecb98695c2c473211b55135d613946bcaefbd1e0e3c6b95e4025b7bfc",
    "simulate-d-word:.BG-cycle-text": "1349632d30bb3dcf27c70ee641f18214907b2dc3e1baf5ab037adb1ef1fa394f",
    "simulate-d-word:.BG-cycle-json": "2ba8cd5c94024622c8124be268660e976f78c8ba4734db15acfe181ad319e977",
    "cylinder-file-uniform-text-plain": "a1cbe2f6bc87c1256be8a7b0c94f74c0dbcb129a6f0ffc27beb868a70e38db0d",
    "cylinder-file-uniform-text-residual": "685a108a94fa79fc9ccf30411a17af0961c18033a2d96931b0fd2768e1341b0b",
    "cylinder-file-uniform-text-marginal": "a1cbe2f6bc87c1256be8a7b0c94f74c0dbcb129a6f0ffc27beb868a70e38db0d",
    "cylinder-file-uniform-json-plain": "66ee4f71adbda3e3419138a74df8dc2959a4eccecd79930e409f4dd221315204",
    "cylinder-file-uniform-json-residual": "c0fd82c1133d1e5d462f7bc57c4cf0d5d3c558b8816ae4a75b862aeede38e87e",
    "cylinder-file-uniform-json-marginal": "66ee4f71adbda3e3419138a74df8dc2959a4eccecd79930e409f4dd221315204",
    "cylinder-file-word:zxyz-text-plain": "8255084d852551e3c470656b54130be39dfdb17105ccd83bf74d0e3d06791afa",
    "cylinder-file-word:zxyz-text-residual": "c34ae0c3f5a7af0af8c8af5cb59733877b418d164ceea2dfcc6979e393ca5078",
    "cylinder-file-word:zxyz-text-marginal": "3ba0779f979725b0201200385d4d286b73ea9c5d585f171438d6ae7ad755e140",
    "cylinder-file-word:zxyz-json-plain": "0860edb42c34a0173b66a771227afd04c8e54b816e16dae134af21345254c601",
    "cylinder-file-word:zxyz-json-residual": "7e505afb526f7e82dded7b2a87aa6bbec6a259016a0e028b0e17cd00141dec17",
    "cylinder-file-word:zxyz-json-marginal": "eef590d81b741f40e83af8605880d3cb6faf2b5f68c65043582aff1156df255b",
    "simulate-a-w63-line": "a6102d119c4960f8c4ba521652715199dff281bc817e417b4a737b5ee0cf5b33",
    "simulate-a-w63-cycle": "04d8c61f5604ff1986ee96e9df6343ac755881226cea7c9d09a69b06b64f9e6b",
    "simulate-a-w64-line": "230f7d6459cc652d3dd8ed1063c0ee0c8cf58bf5f84e705176e919065504482c",
    "simulate-a-w64-cycle": "00899f848818dc5df49546ba216e3c871cb15c4922ba21303e0ae1c0626a3996",
    "simulate-a-w65-line": "418276ac0458e26f389805cbf907c81d21dac75a7d69f4455d12918ab7385997",
    "simulate-a-w65-cycle": "a5573fcb73bd77bdf99896d1fdd93181407621076bf165c35f725d0545e3cddc",
    "simulate-a-w129-line": "d965aca69f44eade6c77b90f9a378991bf90a8b2a875ad46d245ccefe905aa6a",
    "simulate-a-w129-cycle": "eab4736e9f4a8b34c2ba129e9b93fdbc1d1b390bea57daf30aa9c38f23f1ba1a",
    "simulate-b-w63-line": "aa3ef9985aee7eed06a55e5032499b5c9ed87f19513925bcc321a7d0e20a4f9f",
    "simulate-b-w63-cycle": "912f53fc3206527761a8a0c1260204ba3e66aa8ea9a4b949e1a2bd8afed23421",
    "simulate-b-w64-line": "c6fc75aba7adc554b0bdcdaa6b4ea2b0306a4265275b01e2b5b0b5b7819a36f2",
    "simulate-b-w64-cycle": "c0fbf2fac363ba37fee061a880540e9dd3cfa1a31e3f4db3c60f829fdadf4e15",
    "simulate-b-w65-line": "bd790fb92c20487e8cc27d2139f93c83a8070215931e6674f83c151c8349dd1f",
    "simulate-b-w65-cycle": "484a1d74a512e47c54b0b7a213b331bdb5aef9fd47c529eb940e910433a1ac30",
    "simulate-b-w129-line": "0d17c8fae6549af7098402e6454cb655133a23f6fc0ed277b73796ed4b952946",
    "simulate-b-w129-cycle": "3547fe325b8e7f0f02d960b1e9f0e884de5f826d766196cd53ab1125ef25f4b8",
    "simulate-c-w63-line": "26f0da719b131a2a29b936474edc6f8d87423995aba5be0b8e1a1f3b851f9a67",
    "simulate-c-w63-cycle": "f9a133855216f90d9ed5d6cb98c8320c92c873fce5c6a8985cce6a56ca8d72da",
    "simulate-c-w64-line": "9487d7ed90f63f69e7ae1b2dd0cba3abf420c682fd0fccbc2ee86f4f3570f5bf",
    "simulate-c-w64-cycle": "74f456d6183bf51108e8b573a781e728cd8e858ec0324f48f7ed547cb7910b59",
    "simulate-c-w65-line": "3162b55fe60090183e450bd78a92b5312b797eecca6345719135b499f791f1e8",
    "simulate-c-w65-cycle": "5759f4a02b665b0ab725f9b411a79cc8272488387e0ae08a4364b2ea7baebbd9",
    "simulate-c-w129-line": "c3309b7046cab9218f41d4b65137c078ef259ea15d16a4bf5199dc7c0857cc66",
    "simulate-c-w129-cycle": "cdc01cc31dc0175fb362ad10031c08141891ba7460051d46a3e4ba8008623f67",
    "simulate-d-w63-line": "8b4b1d13a90198a18a068b2fa747af7a41fe5534ee03dbb837fe023179107b93",
    "simulate-d-w63-cycle": "7f8f21cecc213eefae65328bb31d86351fa37300dcaab8c81678471969b2b93d",
    "simulate-d-w64-line": "f4b670eada445ee0140868bfd9e03961ee4da406400c2b791c239512c68c9e4e",
    "simulate-d-w64-cycle": "d48496a8c39d553cf8482313d50c5a4dfbcdcd6b7ad825e76ff381f6ad1bf8d4",
    "simulate-d-w65-line": "0cfce98b1ae1f43e851ada35bddb744e9cb589572a1d522d9f0cf9094a089d7a",
    "simulate-d-w65-cycle": "178ab79eadcf31cf6f20ed45fd28fb7920a9000e43c02b5e997824bc713d975c",
    "simulate-d-w129-line": "9a305a7f6972b30b06ac55f60a29f5892d07796dcb159f4b462adb1e01511931",
    "simulate-d-w129-cycle": "d63e6b030a347f1d314d820690b2ec2140d20a9c02e7551f6654c458723bdb52",
    "simulate-a-w65-cycle-300-steps": "e1947838b2189a403673441f3ca7ddd30a8b13d825d145966ba659371eb80f6d",
    "simulate-a-w129-line-max-trial": "f98f5b8a6d599315510da90315a55ca922f2e021f0f21d1e58516a8ca3482aa4",
    "simulate-a-w129-cycle-max-trial": "03e4ae68d9338687672f34984752c036dc634c67b3b96ea1191e09a7fd2ad78c",
    "simulate-b-w65-cycle-300-steps": "e211a245b77938b12ffa55d6519e64b58ec18fe7ee40587615fff5686c213d63",
    "simulate-b-w129-line-max-trial": "559f279ed7b4278ed9137c65e4eb340b5ae579e9eaab01cf595ba730fd386007",
    "simulate-b-w129-cycle-max-trial": "b76efc410426902262122e0d624ffd195ce7f77d54a0969d6129b12060d5d9a0",
    "simulate-c-w65-cycle-300-steps": "d356390dad47520e6b670a338864fcbd9c29cf33d05d5690bd4cb90a5da0d9eb",
    "simulate-c-w129-line-max-trial": "b95b4997ee32a55847bba4ff0ddf6e464e227e784e750cee8768819387c35169",
    "simulate-c-w129-cycle-max-trial": "c189065c8a80345de0df2e63c4ca1c36e59ba69999b2719e4339e1e9d4fcafc5",
    "simulate-d-w65-cycle-300-steps": "380bb27fb4a5f00bdac7fac21030c6c093d5f3497f179d4a9e385b3b210d4ac7",
    "simulate-d-w129-line-max-trial": "b43c3b0919be33752d6b04253eaee5427ea114ce460196835e73726aab8c7451",
    "simulate-d-w129-cycle-max-trial": "ccdca9d69eb14737795a4a8e075ab5da38d752141813525788881b52aff188b4",
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("case", ARGV)
def test_stdout_is_pinned(case, tmp_path):
    rule = tmp_path / "rule.txt"
    rule.write_text(RULE_TEXT, encoding="utf-8")
    out = _stdout([str(rule) if w == "RULE_FILE" else w for w in ARGV[case]])
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[case]
