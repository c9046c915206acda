"""Byte identity of every benchmark workload's reports at seeds 1-3, and the
benchmark's correctness gate at its golden seed.

Each `bench/workloads.py` command list goes once through
bench/worker.py's own Pass (which calls `cli.run_command`) at seeds 1, 2
and 3, and the SHA-256 of each report text and its exit code are compared
with the digests below, command by command.  At workloads.GOLDEN_SEED the
worker's own Gate then checks the same pass against bench/golden/: the
exit code, and every field to the gate's relative tolerance, so a report
change that the golden files do not carry fails here, before the
benchmark runs.  Together with the 27 cases of tests/test_report_bytes.py
this pins every report the benchmark renders at those seeds, so a change
meant to leave the program's output alone is checked without diffing
reports by hand.  A digest may change only together with a written reason
in CHANGES.md, and then with bench/golden/ regenerated in the same change.
To regenerate one, print `hashlib.sha256(text.encode()).hexdigest()` for
the command.  The test only reads bench/.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from fisherbound import cli, pauli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
# no bytecode cache is written next to the benchmark's files
saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import worker
    import workloads
finally:
    sys.dont_write_bytecode = saved

# (workload, seed) -> (exit code, report digest) of each command, in order
DIGESTS = {
    ('bell-bounds', 1): [
        (0, "cc87deac86cbb1ac943e97bb6bb18b87887708f05eefd4d9427e2ce2bc7bb562"),
        (0, "dabb210c227c0b74ae63693e0a18d2060afa0b3140fd38bee78d83b98b0fa0b5"),
        (0, "187e8858b34a138bf8ea76285f1c9f67aeded7f8791699edd1417248f53ea9a2"),
        (0, "d6afb9c1bd893a35e9b21fbc9accf34e337ccd4766ad9788bc626a3a1d969a59"),
        (0, "a984b81470976ff1e1070e5c90a7212efce593919522d3eb94e78d10bb411f76"),
    ],
    ('bell-bounds', 2): [
        (0, "880828a94160b99c50eed24f705759212060c795e57d3cdf5229ff3d538a39f1"),
        (0, "400c071d5ecac0ff6fe65f9e1a3e1a24f0048a1bcf0e3fc1bbb4583af270d07b"),
        (0, "b8c9c670c08418d23573208eddfe3c094028e8a09089b7017483114688825084"),
        (0, "87a44efefa389560e71915e3a60d2fa2e8d9c1906a7679d9400591472e176795"),
        (0, "19633eedc192d0e9e94b213345798fd2e88f91f00b570c2f26fd3353d26d2058"),
    ],
    ('bell-bounds', 3): [
        (0, "1a4b24771fa9d63f61124ad8bd523817fa3b8c3767fcd77926a5b05efcd16c6f"),
        (0, "b66b37bc4f75bcf277689ae833f428194bca82838a2d2fd92b73bd36342a081d"),
        (0, "37de55053ceb28a92cd38932073e89cd96343ada1d026b6403bfe63d8bb91ddb"),
        (0, "89f976d9764ee0170cb234cedcf3d053d277a873ae4267c94877ab0b4b3437cd"),
        (0, "a7211a208739361f1d9fa016ec7fd9ea45ef4f66cf0bbb816b2a47ea4ae143d7"),
    ],
    ('bell-search', 1): [
        (0, "a9dcbdf9861abb340cc6b13790e1a4b87edb2830f958e995bffebd64de81f3f3"),
        (0, "6b534ac60d9972a661188382195f647379c3429b6737259545150c75dc642f3d"),
        (0, "4b02c57d55013ef5d15effeef0ca091a8cebd7db2a9f6f244b305359eaa999b9"),
        (0, "5de995e0e69e1130128bd9956ef74ca8de1ff0ff8908de595a3a885fbbda05e1"),
        (0, "cd4d5b490b8fee7126da11332d729f384a68e34052c38f19e00f088a84fc8feb"),
    ],
    ('bell-search', 2): [
        (0, "c4d1401bb995d6abe353a47e277d5e2a502074980bb267e234e0d742b71beaa2"),
        (0, "9a195819719adac2e21c63b19c1345062988e44f3a8e1030e86e431f72717cc6"),
        (0, "f808f57841600ae769f87bf4f2ab4292c2b881bfa5e87bebd9875a81157913b4"),
        (0, "b0275aa61355a85d2b39e83d50b8625ab1a5376e368c720962e5de9382297ab6"),
        (0, "5dec8c0b1341dabf496c286b7b55fcdac7014a74355c5f96b8728c6da23e94ad"),
    ],
    ('bell-search', 3): [
        (0, "72f864007a98ef4216a7818ff3d19e50c9b00270ab1d6da2f8c8aaf22d41485f"),
        (0, "e44b9d0dae89c44bc0bc1527e08a95200fa9a588ea3f6a3e6d656a11fbc4709b"),
        (0, "af5ebecdeb39e938163a5e7d6197199ab455459d20f375bb7e340e97d31ab20c"),
        (0, "bcc8330e8290b174d63a9d94747c366eb3ea757072ccbcf3ff04bc1740966d33"),
        (0, "d65e7f270ea3fd5b916be2efc8dcaa8ffb698c77644c4d9a678d177af3124144"),
    ],
    ('scalar-search', 1): [
        (0, "e0a45cf087d83c4a1d955b67edceb0a71288648579cf9b2402e72fc4b23c6e60"),
        (0, "93fcb3c5f9ab3eb1aac1cb1eeb71a6e0a880d011be1544c00cd5106aeca8be02"),
        (0, "b6b988dd7018d3ffc27968adf27cca005c23cc6a21b4ea84ea5aba77648e14be"),
        (0, "db7e3d5390c272f3dbc5cf228588a5838e9aa0ccb455a4d127643df471b806db"),
        (0, "dd90c717390775dfe3b8ec58263ecf023391ec1159a273fe0f3dccde89893c1f"),
        (0, "30a48835878ca0dbc1a262040800e7711808bf8a035fa575eb26e7eafff1e98b"),
        (0, "671792c0853cb070cd896929207afeb1cc687b7520b6cbc0b3592b7b162a4a2b"),
        (0, "8c44e6283fadee4024df147eea84f467b5d08a826f6a8e100cc5891b457eb9f9"),
        (0, "b6fd788f23ee7c1d55cc7563a70d02d681de729e6d345673f716e732176f94ec"),
    ],
    ('scalar-search', 2): [
        (0, "212aa334c1d6f848ee840e16d2f5abfdeec92567d8cbfb72334c25708decb1bb"),
        (0, "08b1a8170d2aac11bb57c434fa2a460021371266b4f9923e90ba8d8073ba6d1c"),
        (0, "04bb69c0ea3d26d975899818e58f2840c2065a6437c351254b5b1e50779780e6"),
        (0, "54dc242e620f5f8d1572e97c3780585526b2b69395e725bf793142b1d1b232b7"),
        (0, "ffce13cd2d937c92410f73d6e27927f42899f088ace4dd9a6de107fa51956b82"),
        (0, "2282b85b9bd949f7e4362e072c7a26888423fad2a344fb46a3a4b7c6879d4d84"),
        (0, "bb180283c9a4fde1e5157c104a0b74b0e7a0b69bceff24cb537dcd1718522a00"),
        (0, "a7e7f90c54a87c39661c99849e5ed29e597c3a866b2b0eed5f12d79bfc9d4819"),
        (0, "d9707be9998ea628908e7ee6ade1e99b9e124a198760cc0be886605f01dd73ce"),
    ],
    ('scalar-search', 3): [
        (0, "99f97bba68dd87cdc7403bfe751054d426ef52f8c1977f3f61bebb827782115b"),
        (0, "bda4b8617bb9ade8d835a69ea8ce90f142d1ae1f2c945651ee90f4ba3cdf2ab8"),
        (0, "2e0cd105f8791351d245a5b763d85d4eb076911022c434df39db37899943c0e3"),
        (0, "7ea0f2eaf75e83ee6560759f74aa8e83b82660d29bac86f306908b949185d21e"),
        (0, "8e49e092ad4b1dc608481f3cbcb5c8dc963f33daf1f881c6b26abe71b1515e53"),
        (0, "11548188ddc91ac654dcbea469c4b9e0cb5870a995d1d0ef5bdd05b86d16572f"),
        (0, "52bf8ee5e8843448a040683c2397444214fd9f97d0c81a6a6cba53b8cbd8035f"),
        (0, "4422b56a78ba3a1da39dc3e55331431ee850ff15ed23a33515904362fdc087f7"),
        (0, "f8f179b626ac0a7a9b53022d91ec7918a22f98e23c20fcaf50e928127380156a"),
    ],
}


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS),
                         ids=[f"{w}-seed{s}" for w, s in sorted(DIGESTS)])
def test_workload_reports_match_their_digests(workload, seed):
    plan = workloads.commands(workload, seed, cli, pauli)
    done = worker.Pass(cli, plan)
    assert not any(done.errors), [error for error in done.errors if error]
    got = [(code, hashlib.sha256(text.encode()).hexdigest())
           for text, code in zip(done.texts, done.codes)]
    assert got == DIGESTS[workload, seed]
    if seed == workloads.GOLDEN_SEED:
        gate = worker.Gate(worker._load_golden(workload), seed)
        gate.check(done, "golden-seed pass")
        assert (gate.attempted, gate.failed) == (len(plan), 0), gate.problems
