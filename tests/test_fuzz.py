"""Seeded fuzzing of the two readers of outside input, graph6 lines and
annealing checkpoints, with stdlib `random` only; well under two seconds."""

import json
import random

from inducibility.cli import main
from inducibility.errors import Graph6Error
from inducibility.graphs import Graph, parse_graph6, to_graph6


def test_graph6_mutations_parse_or_raise_graph6_error():
    rng = random.Random(7)
    lines = []
    for n in (0, 1, 2, 5, 6, 7, 12, 30, 62, 63, 64):  # 63 and 64 take the 4-byte header
        pairs = [(i, j) for j in range(n) for i in range(j)]
        lines.append(to_graph6(Graph.from_edges(n, [p for p in pairs if rng.random() < 0.5])))
    for _ in range(3000):
        chars = list(rng.choice(lines))
        for _ in range(rng.randint(1, 3)):  # replace, insert or delete one byte
            op, at = rng.randrange(3), rng.randrange(len(chars) + 1)
            if op == 1:
                chars.insert(at, chr(rng.randrange(256)))
            elif op == 0 and at < len(chars):
                chars[at] = chr(rng.randrange(256))
            elif at < len(chars):
                del chars[at]
        try:
            g = parse_graph6("".join(chars))
        except Graph6Error:
            continue
        assert parse_graph6(to_graph6(g)) == g


FIELD_VALUES = [
    None, True, -1, 2**70, float("nan"), float("inf"), "", "abc", "1/0", [], {}, [1],
    [3, [0] * 625, None],  # the all-zero generator state: every draw is 0
    [3, [2**32] * 624 + [624], None],  # words past 32 bits, kept mod 2^32: zero again
    [3, [1] * 624 + [625], None],  # position past the end of the state
]


INTEGER_FIELDS = {"version", "iteration", "since_improve", "n"}


def test_checkpoint_fields_exit_0_or_2(tmp_path, capsys, within):
    cp = tmp_path / "run.json"
    argv = ["ind", "Bg", "--n", "6", "--search", "--checkpoint", str(cp), "--iters"]
    assert main(argv + ["20"]) == 0
    valid = json.loads(cp.read_text())
    for field in sorted(valid):
        for value in FIELD_VALUES:
            cp.write_text(json.dumps({**valid, field: value}))
            with within(5):  # a hang exits 4 through the CLI's last-resort handler
                code = main(argv + ["30"])
            err = capsys.readouterr().err
            assert code in (0, 2), (field, value, err)
            if field in INTEGER_FIELDS and type(value) is not int:
                assert code == 2, (field, value, err)
