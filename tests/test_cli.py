"""CLI subcommands, formats, batch input, witness files, and exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from groupgraphs import cli, graphs, groups, powergraph
from groupgraphs.cli import main, parse_group_spec


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parse_group_spec_atoms() -> None:
    assert parse_group_spec("Z6").order == 6
    assert parse_group_spec("D4").order == 8
    assert parse_group_spec("S3").order == 6
    assert parse_group_spec("A4").order == 12
    assert parse_group_spec("Q8").order == 8
    assert parse_group_spec("Dic3").order == 12


def test_parse_group_spec_products() -> None:
    group = parse_group_spec("Z2xZ6")
    assert group.order == 12
    for spec, name in (("Z2xZ6", "Z2xZ6"), ("Z2xZ2xZ3", "Z2xZ2xZ3"), ("Z06", "Z6")):
        assert parse_group_spec(spec).name == name
    assert group.is_abelian()
    triple = parse_group_spec("Z2xZ2xZ2")
    assert triple.order == 8
    assert all(triple.element_order(g) <= 2 for g in range(8))


def test_parse_group_spec_rejects_garbage() -> None:
    for bad in ("", "Zx", "xZ2", "Z2x", "Q16", "B5", "Z2yZ3"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_parse_group_spec_order_limit(monkeypatch) -> None:
    # every order is checked before any group is built
    def no_build(*args):
        raise AssertionError("a group was built for an oversized spec")

    for name in ("cyclic", "symmetric", "alternating", "direct_product"):
        monkeypatch.setattr(groups, name, no_build)
    for spec, culprit in (("S8", "S8"), ("S3000000", "S3000000"), ("A3000000", "A3000000"),
                          ("Z4096xZ2", "Z4096xZ2"), ("S6xS6", "S6xS6")):
        with pytest.raises(ValueError, match=f"group spec '{culprit}' exceeds the CLI order limit"):
            parse_group_spec(spec)


def test_oversized_group_spec_is_one_error_line(capsys) -> None:
    code = main(["power", "--group", "S6xS6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_power_graph6_output(capsys) -> None:
    code, out = run(capsys, "power", "--group", "Z4")
    assert code == 0
    assert out.strip() == "C~"  # pg(Z4) is K_4


def test_power_directed_output(capsys) -> None:
    code, out = run(capsys, "power", "--group", "Z4", "--directed")
    assert code == 0
    assert out.strip() == "&CAww"
    decoded = graphs.from_digraph6(out.strip())
    assert decoded == powergraph.directed_power_graph(groups.cyclic(4))


def test_power_table_format(capsys) -> None:
    code, out = run(capsys, "power", "--group", "Z2", "--format", "table")
    assert code == 0
    assert out.splitlines() == ["2", "0 1", "1 0"]


def test_power_json_format(capsys) -> None:
    code, out = run(capsys, "power", "--group", "Z6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["directed"] is False
    assert [0, 1] in payload["edges"]


def test_power_dot_format(capsys) -> None:
    code, out = run(capsys, "power", "--group", "S3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {")
    assert 'label="(0 1 2)"' in out


def test_cayley_subcommand(capsys) -> None:
    code, out = run(capsys, "cayley", "--group", "Z4", "--set", "1,3")
    assert code == 0
    cycle = graphs.from_graph6(out.strip())
    assert cycle.degree_sequence() == [2, 2, 2, 2]


def test_cayley_rejects_non_inverse_closed(capsys) -> None:
    code = main(["cayley", "--group", "Z5", "--set", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "inverse" in captured.err


def test_cayley_directed_allows_non_inverse_closed(capsys) -> None:
    code, out = run(capsys, "cayley", "--group", "Z5", "--set", "1", "--directed")
    assert code == 0
    assert out.startswith("&")


def test_cayley_empty_set(capsys) -> None:
    code, out = run(capsys, "cayley", "--group", "Z3", "--set", "")
    assert code == 0
    assert graphs.from_graph6(out.strip()).is_edgeless()


def test_aut_from_group(capsys) -> None:
    code, out = run(capsys, "aut", "--group", "S3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph 0: order 6, 12 automorphisms"
    assert len(lines) == 13


def test_aut_json_from_file(capsys, tmp_path: Path) -> None:
    infile = tmp_path / "graphs.g6"
    infile.write_text("C~\nA_\n", encoding="ascii")
    code, out = run(capsys, "aut", "--in", str(infile), "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["count"] for r in records] == [24, 2]


def test_aut_respects_bound(capsys) -> None:
    code = main(["aut", "--group", "Z2xZ15"])  # order 30 exceeds the default 16
    captured = capsys.readouterr()
    assert code == 2
    assert "bound" in captured.err.lower()


def test_is_cayley_batch_mixed_formats(capsys, tmp_path: Path) -> None:
    dpg = powergraph.directed_power_graph(groups.cyclic(4))
    infile = tmp_path / "mixed.txt"
    infile.write_text(
        "C~\n" + graphs.to_digraph6(dpg) + "\n>>graph6<<A_\n", encoding="ascii"
    )
    code, out = run(capsys, "is-cayley", "--in", str(infile))
    assert code == 0
    lines = out.splitlines()
    assert "cayley" in lines[0] and "not" not in lines[0]
    assert "not cayley" in lines[1] and "NotRegularDegree" in lines[1]
    assert "cayley" in lines[2] and "not" not in lines[2]


# sha256 of witness files, recorded before the two witness builders were
# folded into one: K_4, Z8 and Z7 take the complete/edgeless fast path, the
# Cayley graphs of Z6 and Z5 the regular-subgroup search.
WITNESS_DIGESTS = [
    ("--group Z8", "5c38207e4314c7fa0d181880ed957bb2c1088f9decd52a38753f6e496d7d1252"),
    ("--group Z7 --set ''", "123cd6ef6903467028733086dc822e4327020f8d0054bc3804a025c17f3cb34e"),
    ("--group Z6 --set 1,5", "72e92ea7270ce876b42f0f2d83055248ad2aae50f61c4ede34a5cdcd81a1ae0f"),
    ("--group Z5 --set 1 --directed", "c1acdeee06ef9adc2b2cf3c20f8ce208b342f2ee0880ca5008968ceda0662888"),
]


def test_is_cayley_witness_file(capsys, tmp_path: Path) -> None:
    infile = tmp_path / "in.g6"
    infile.write_text("C~\nEse?\n", encoding="ascii")  # K_4 and pg(S3)
    witness_path = tmp_path / "witness.json"
    code, out = run(
        capsys, "is-cayley", "--in", str(infile), "--witness", str(witness_path)
    )
    assert code == 0
    payload = json.loads(witness_path.read_text(encoding="utf-8"))
    assert len(payload) == 2
    assert payload[0]["cayley"] is True
    assert payload[0]["group_order"] == 4
    assert payload[1] is None
    assert hashlib.sha256(witness_path.read_bytes()).hexdigest() == (
        "4633f47cf18fa358391ead904d02b54c56b5383467f50fbc831fa1579dc5918d")
    for argv, digest in WITNESS_DIGESTS:
        code, _ = run(capsys, "is-cayley", *shlex.split(argv), "--witness", str(witness_path))
        assert code == 0
        assert hashlib.sha256(witness_path.read_bytes()).hexdigest() == digest, argv


def test_witness_file_is_json_dumps_with_indent_2(capsys, tmp_path: Path) -> None:
    witness_path = tmp_path / "witness.json"
    code, _ = run(capsys, "is-cayley", "--group", "Z64", "--witness", str(witness_path))
    assert code == 0
    text = witness_path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert payload[0]["group_order"] == 64
    assert text == json.dumps(payload, indent=2) + "\n"


def test_power_z2048_json_traced_peak(tmp_path: Path) -> None:
    # measured 22.7 MB; the text joined whole and an int64 table peaked near 85 MB
    out = tmp_path / "power.json"
    tracemalloc.start()
    try:
        code = main(["power", "--group", "Z2048", "--format", "json", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 32e6
    assert out.stat().st_size == 27073668


def test_bad_connection_set_is_one_error_line(capsys) -> None:
    code = main(["cayley", "--group", "Z6", "--set", "1,x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_is_cayley_reads_standard_input(capsys, monkeypatch) -> None:
    monkeypatch.setattr(sys, "stdin", io.StringIO("C~\nEse?\n"))  # K_4 and pg(S3)
    code, out = run(capsys, "is-cayley", "--in", "-")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "not" not in lines[0]
    assert "not" in lines[1]


def test_empty_input_file_is_reported(capsys, tmp_path: Path) -> None:
    infile = tmp_path / "empty.g6"
    infile.write_text("\n", encoding="ascii")
    code = main(["aut", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert "no graphs found" in captured.err


def test_is_cayley_json_format(capsys) -> None:
    code, out = run(capsys, "is-cayley", "--group", "Z6", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["cayley"] is False
    assert record["reason"] == "NotRegularDegree"


def test_is_cayley_requires_exactly_one_source() -> None:
    with pytest.raises(SystemExit):
        main(["is-cayley"])
    with pytest.raises(SystemExit):
        main(["is-cayley", "--group", "Z4", "--in", "nope.g6"])


def test_verify_table_output(capsys) -> None:
    code, out = run(capsys, "verify", "--max-order", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("group")
    assert any(line.startswith("Q8") for line in lines)
    assert "order-1 group is exempt" in out


def test_verify_json_output(capsys, tmp_path: Path) -> None:
    outfile = tmp_path / "rows.jsonl"
    code, _ = run(
        capsys, "verify", "--max-order", "12", "--format", "json",
        "--out", str(outfile),
    )
    assert code == 0
    rows = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert len(rows) == 24
    assert all(row["consistent"] for row in rows)


def test_verify_rejects_bad_max_order(capsys) -> None:
    code = main(["verify", "--max-order", "99"])
    captured = capsys.readouterr()
    assert code == 2
    assert "max_order" in captured.err


def test_missing_input_file_is_reported(capsys) -> None:
    code = main(["aut", "--in", "/nonexistent/path.g6"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_malformed_input_line_is_reported(capsys, tmp_path: Path) -> None:
    infile = tmp_path / "bad.g6"
    infile.write_text("C\n", encoding="ascii")
    code = main(["aut", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_out_flag_writes_file(capsys, tmp_path: Path) -> None:
    target = tmp_path / "graph.g6"
    code, out = run(capsys, "power", "--group", "Z4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").strip() == "C~"


def test_module_entry_point_subprocess() -> None:
    # the child imports the same package as this test, wherever it came from
    package_root = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "groupgraphs.cli", "verify", "--max-order", "5"],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0
    assert "Z2xZ2" in result.stdout


# sha256 of standard output, recorded before the numpy rewrite of graph
# construction and serialization; orders above 62 have no graph6 (exit 2).
CLI_OUTPUT_DIGESTS = [
    ("power --group S4 --format graph6", 0, "2699ed706a854a544f6a74beb4cb6c91ddc83d68d541ebf3a27e4f2199eb8b59"),
    ("power --group S4 --format json", 0, "d610be4b2e0a071c57ba6741d365f9b170442ae89cf149c5ce95c8469c3a5709"),
    ("power --group S4 --format table", 0, "8d802ef8a7bbcaba321474579e066bbe2188a23e1db15376a4ab8fed621934d5"),
    ("power --group S4 --format dot", 0, "b4b64f7eb84ba8b633cd675622d81cb487e0e8498f9ea6c09fd87c2c535b21c1"),
    ("power --group S4 --format graph6 --directed", 0, "7988cf770c4a1da632d4e6027dec65b6a1e435ec732a34080c3903ee852d37b6"),
    ("power --group S4 --format json --directed", 0, "d8ad7a2d60bbf50ac4b9d8f4b46a52d71321882fd3183da95d6f724406e190e0"),
    ("power --group S4 --format table --directed", 0, "0d01eff4bd4abe171d2f243a125345f5accc3cd8e4369154ba9a07880d799521"),
    ("power --group S4 --format dot --directed", 0, "7b31477acce399d3c14126fcd73e4105db7df2d726723d98d0a0dce61f010c7c"),
    ("cayley --group S4 --format graph6 --set 1,23", 0, "4ef1aa7b47046ec9e8a4ba5f9af425f83bbce344450edaeb61aa9414039ec443"),
    ("cayley --group S4 --format json --set 1,23", 0, "b0572462fc532a179c07cf9d8e928a480f1b8ea16d1cbe8dd2405b3ddbaea22d"),
    ("cayley --group S4 --format table --set 1,23", 0, "a5018966571128617654d8bb428afb93e21372886caa66fce501a02736bdb9af"),
    ("cayley --group S4 --format dot --set 1,23", 0, "89eedb4792bf3bf46014b03e0fde3a26200bcf673016002db633bd1ed5774e77"),
    ("cayley --group S4 --format graph6 --set 1,2,3 --directed", 0, "6aa902c717756e8948c673f29d25318dffc0e6edb681e157950c72e3515f3297"),
    ("cayley --group S4 --format json --set 1,2,3 --directed", 0, "d837b3a64554dea6b65eb7064d7b0cc788290f963b96a3c9c7289f895c7bbcc5"),
    ("cayley --group S4 --format table --set 1,2,3 --directed", 0, "7bcc9205e6ca6493916f749b7582831de7753bb8902cb29fcb98498855371c62"),
    ("cayley --group S4 --format dot --set 1,2,3 --directed", 0, "11d74e12d0b76b65832ed1daee34d9f84798d9431e57016805f06cf90bbb51dc"),
    ("power --group D6 --format graph6", 0, "b99d173c1836c89b16cbf8518ed1c0259a9d6fdf71ee953e56b675908d05d114"),
    ("power --group D6 --format json", 0, "92a15216e3f88b515007db0e65af4482d709c499eb2b99b8d9cc9fe55f1cb175"),
    ("power --group D6 --format table", 0, "4e378265f2a182e3cc1bc5ab0a16e80c642b2e48e295a54219d888c9cc445113"),
    ("power --group D6 --format dot", 0, "343ce77e363925ef22724aa9d8be3bd63f51cdccdae9873b511acc3a3f77512a"),
    ("power --group D6 --format graph6 --directed", 0, "02eb4dba6acca2e33486b362bec1058a05b150134b00ddb74acf2876e90f6f7f"),
    ("power --group D6 --format json --directed", 0, "baee0e0bd0f54929f0ab4b7179e871ce631dd1fd0bec70d810ec0518ad2529c8"),
    ("power --group D6 --format table --directed", 0, "2c8195bf106d9c704c08e1508b61d00ac1c390d7f075deb00f16ef84ba6de242"),
    ("power --group D6 --format dot --directed", 0, "36ccf66b0049f6c8a75b620a40cb84d80168240af0dfe0ac49dbd60f3958798c"),
    ("cayley --group D6 --format graph6 --set 1,5,11", 0, "ef27d068760cb5b4d26cc196ce01e6a5d7d57b5839006517fbe2f558d2942614"),
    ("cayley --group D6 --format json --set 1,5,11", 0, "e596887f4ecdb8829e60dc0f2c4fb234d5f01a6eb68307db5ad081a770a45457"),
    ("cayley --group D6 --format table --set 1,5,11", 0, "d41975a4fccfca8863445603277d147329220b9653f8f86851e4b11156a3ff29"),
    ("cayley --group D6 --format dot --set 1,5,11", 0, "2df38365949cfb26ec35a3bf48fe8c3bb537bb7aa905397f7c4f10aa797aad04"),
    ("cayley --group D6 --format graph6 --set 1,2,3 --directed", 0, "f46ce83a8d7774a7f79e7855ea28e8e8d1eb05802c9507910e59708335e3e302"),
    ("cayley --group D6 --format json --set 1,2,3 --directed", 0, "77ad89f062454c59f4b7571ad32ea24a59a4b40b29def90367dfa039d3837c31"),
    ("cayley --group D6 --format table --set 1,2,3 --directed", 0, "dbf7af3c0b6a94514a225fa5445d53017b6dad8f5c0bf7c86bde4b87ba87deef"),
    ("cayley --group D6 --format dot --set 1,2,3 --directed", 0, "b89e0bf83c136b43565243fe5e86152055dcb468a562ef35be71cde912c80de2"),
    ("power --group Dic3 --format graph6", 0, "9294e7d4068f1cbbb41fc2104be818c3fd5473d7647cf7e7e189102fa466756d"),
    ("power --group Dic3 --format json", 0, "55caf95b70286e59989acbc845443ea137db06de764ebc863734dbeff9cfa175"),
    ("power --group Dic3 --format table", 0, "2c2a37a19b73c3ab9dea20d8fa3e56ec01c69714ff2d166516f9471d47b3bb6b"),
    ("power --group Dic3 --format dot", 0, "7d345f0e031c5b7cd4a149d5f0b7f2433e2010d11bd58fd5e2373480bbb30389"),
    ("power --group Dic3 --format graph6 --directed", 0, "17fe9367ba1d2e7c84cf6e17c7e6ee4fa10a7709dcb950aa5a791176af3ff817"),
    ("power --group Dic3 --format json --directed", 0, "3afa0cbc3e32a7fee1080a9ba56aaa54b194e705d1189613342e40757114ced9"),
    ("power --group Dic3 --format table --directed", 0, "06d5614ad5bd9c7bd3c3fbc5cd3a69be66717b85d91726bda288027cf1f6e100"),
    ("power --group Dic3 --format dot --directed", 0, "076ccd8e66b65681ae66206ba67443c003079fb55a2fe9f18f1eddea5510314c"),
    ("cayley --group Dic3 --format graph6 --set 1,5,8,11", 0, "f78110e1a1ea307060d115e03455f19ef7b7e631f2d29caa34b4260bd6037c65"),
    ("cayley --group Dic3 --format json --set 1,5,8,11", 0, "cdb3932adac58260cadcdb57c8260d55a152b9a92c5c69dfca1cbc0d566d81a8"),
    ("cayley --group Dic3 --format table --set 1,5,8,11", 0, "023a1a1406eedcf0fb46a10b699d246f26280ff9baedf973982ea9dcb077c6e6"),
    ("cayley --group Dic3 --format dot --set 1,5,8,11", 0, "6a9fedebadf34f33168545c783faf328f769dce42d4561eddf9315b905325138"),
    ("cayley --group Dic3 --format graph6 --set 1,2,3 --directed", 0, "f46ce83a8d7774a7f79e7855ea28e8e8d1eb05802c9507910e59708335e3e302"),
    ("cayley --group Dic3 --format json --set 1,2,3 --directed", 0, "77ad89f062454c59f4b7571ad32ea24a59a4b40b29def90367dfa039d3837c31"),
    ("cayley --group Dic3 --format table --set 1,2,3 --directed", 0, "dbf7af3c0b6a94514a225fa5445d53017b6dad8f5c0bf7c86bde4b87ba87deef"),
    ("cayley --group Dic3 --format dot --set 1,2,3 --directed", 0, "381d2501e8ad985db02a8073ed4ecd2d36bb247b98d810963765345d204d3130"),
    ("power --group Z2xZ6 --format graph6", 0, "48543d83630ce18338f78480390c4f400a537fbda45132060419d4a6d6188b4e"),
    ("power --group Z2xZ6 --format json", 0, "036cd6810c7eb555426ac682b18f86b999baf64dfb3302e8a309a2a55919ea21"),
    ("power --group Z2xZ6 --format table", 0, "22efcdca83e63f9b6716c22bc9b903afa1bd935f6a107eb2f94784e08e9c66b4"),
    ("power --group Z2xZ6 --format dot", 0, "6028c90c41247c2251849a5973f409174f7892cdd2fe1beb5563bfeff6b42ef5"),
    ("power --group Z2xZ6 --format graph6 --directed", 0, "b5c3e1c817de07cb1f52bc56c9bcebbdefde33ecbc5c4da1f72c765c33660533"),
    ("power --group Z2xZ6 --format json --directed", 0, "b568be742f0b8e2f4845d66e46fe3c9235b853891fffefc8303c8968da480986"),
    ("power --group Z2xZ6 --format table --directed", 0, "dca08b979c72f81258eb3fb8fe603b9f3440246c9b43b991c75e0d3eef8e3b45"),
    ("power --group Z2xZ6 --format dot --directed", 0, "51861ffc570f82aace9f882578d5f579cdea72f75c326b52da5ce19c289ca1dd"),
    ("cayley --group Z2xZ6 --format graph6 --set 1,5,7,11", 0, "da78ab2d1928eb2a516dca7dbdd1ed16cf7213ad3396a47fe3dc24f6f9060665"),
    ("cayley --group Z2xZ6 --format json --set 1,5,7,11", 0, "c63bbac2c21bbaa2808427480f4b67baeb485c74d37bd9a3b0fcf665a3bbc934"),
    ("cayley --group Z2xZ6 --format table --set 1,5,7,11", 0, "d7fbb134e141d9f8cda7dd3573799021ce0af88c4a22567e80956099d70847ba"),
    ("cayley --group Z2xZ6 --format dot --set 1,5,7,11", 0, "402e4d32dbf4ed6ec4ae3c1b706204d5834bb3068d9e8b00bc2457c01bad4b46"),
    ("cayley --group Z2xZ6 --format graph6 --set 1,2,3 --directed", 0, "bb829f03ae8126851d1d75139d9b3a22df499569b2a5ebb2d03529a9865fdcf0"),
    ("cayley --group Z2xZ6 --format json --set 1,2,3 --directed", 0, "e8b71ea4743ceea7561bf71cc55c8118a7e5453cfb660d0b13dbdc2faa70221f"),
    ("cayley --group Z2xZ6 --format table --set 1,2,3 --directed", 0, "6c657451de1f9d4d2e496ca64a1dde3e3e5128dd9fcebf484a64bd89719ca38a"),
    ("cayley --group Z2xZ6 --format dot --set 1,2,3 --directed", 0, "1ee85daf6ec9e18852f89df6460d9e4ce9585f744b02740e56e29eaed59d2b4f"),
    ("power --group A5 --format graph6", 0, "5a0448f80951cc63b2515c792a0a8d72589ce96fde01505797e2b8dd1d2d3c53"),
    ("power --group A5 --format json", 0, "ed7cab2b86bc8de13f7618a8fb9b76096248c3339348f808dde524461c6245b8"),
    ("power --group A5 --format table", 0, "b5483ba1fa6ae826746d9981cbcb9a4765bb79ada12c042c9318b91b1d874383"),
    ("power --group A5 --format dot", 0, "75f6586e0fa46b55ced0662f5235239d123f2bea941727a0e7d45eb75a1e530e"),
    ("power --group A5 --format graph6 --directed", 0, "47feabf8975cada02befd02cbd74c51412ce712e229d790be4a51ae3554b30d3"),
    ("power --group A5 --format json --directed", 0, "599eb1ddabf35e5058829cb3d35f238f0829159457c3285e3f8bf78ed9225968"),
    ("power --group A5 --format table --directed", 0, "f2ab83a35bbc67ba6ccf2990449a990ff61a404ca391125e6be0603724ff3b75"),
    ("power --group A5 --format dot --directed", 0, "c6b729e1650354274d6052140d42950d042016b83aae59584ecc3404b4dc8d08"),
    ("cayley --group A5 --format graph6 --set 1,2,59", 0, "d89199a04b1495eb814e9d493c8f901546518949eabb9b366ccfc860decae082"),
    ("cayley --group A5 --format json --set 1,2,59", 0, "abfe4a81eadd387470b12c2566ca89dc13d2f6134e144e8d87251adba0f7e1b9"),
    ("cayley --group A5 --format table --set 1,2,59", 0, "10aa38101578a3eb67a59bfc881d5f8e0d40a9fa80117d4fe0d077d5bfc7751a"),
    ("cayley --group A5 --format dot --set 1,2,59", 0, "731eb27515e98d5adc3e07b617b3ad329d158f6ae469ace3de43a6a8efd80caf"),
    ("cayley --group A5 --format graph6 --set 1,2,3 --directed", 0, "11ff075805443a13dfe02ecfc1b630e8279e2c2bfaa177568ad1c6eea125581b"),
    ("cayley --group A5 --format json --set 1,2,3 --directed", 0, "4e4a6a030009c3aa7e9f1e600029f562070726072695ed25cbcebacb672f5cc8"),
    ("cayley --group A5 --format table --set 1,2,3 --directed", 0, "6d3aa9805b4383f636b1b733555f834f4b2a7b4ef209f0c6b9f17a8f4d53357d"),
    ("cayley --group A5 --format dot --set 1,2,3 --directed", 0, "cb65f24269c5a8e0c8069af3ce308c5a40b52dc3ecdf546b09a1243d70f1f4ab"),
    ("power --group D64 --format graph6", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("power --group D64 --format json", 0, "826c32d77853242c07d56c5ae843d2acb881764902d936ee71c5c3e899e73bf3"),
    ("power --group D64 --format table", 0, "fc3b27f815dac979a96c6ff4ec880c9318457ea0c46928546b9936781e529acc"),
    ("power --group D64 --format dot", 0, "c5f73cec6f1ec0893a81a989d5ae84e93560e538ecaacb7cac502665a6e6c434"),
    ("power --group D64 --format graph6 --directed", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("power --group D64 --format json --directed", 0, "065fcf06c15287d6e6fad415d302cee9d3f7280658fc23084ab6a4e18586f7e7"),
    ("power --group D64 --format table --directed", 0, "5aff9dc660f1a83949f2cb660a556acfc735bedc927bebc75d8170f9a7cb0607"),
    ("power --group D64 --format dot --directed", 0, "51dd7c6eaff5466a19217998c32480eedcadb32cc1bdf09176b77bccfbafc85e"),
    ("cayley --group D64 --format graph6 --set 1,63,127", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cayley --group D64 --format json --set 1,63,127", 0, "c219bb7c0b6802bd1d147a20741351d2dde93831f534ea429f292f740dc2107b"),
    ("cayley --group D64 --format table --set 1,63,127", 0, "2df092a98f17f4896739f4360622cc9d73cef947cd8105227038719b76976068"),
    ("cayley --group D64 --format dot --set 1,63,127", 0, "0882942485a1957b85937abed6e216e3b91b30c9d160bb8f21fd516e1c65788a"),
    ("cayley --group D64 --format graph6 --set 1,2,3 --directed", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cayley --group D64 --format json --set 1,2,3 --directed", 0, "f30c76a8cc807d583fed34bff8083ebc4e7a5964fd7ccc4d9a5b1a89b29a64f9"),
    ("cayley --group D64 --format table --set 1,2,3 --directed", 0, "6499bc98c6b9c2034223c8995893928a21de1107bdbbe1d7359ca2e01a0a5e6b"),
    ("cayley --group D64 --format dot --set 1,2,3 --directed", 0, "f56a1b2aeea4dd261e96d7df52492a671dd4a678a22f24f689e79a9a764ef58f"),
    # recognition output, recorded before the two witness builders were folded into one
    ("is-cayley --group Z8 --format json", 0, "4e8f5753691b9dd22bf19413390792cdaaedd8e0c19e7a8dd78e5ebf0332cbc4"),
    ("is-cayley --group Z8 --format table", 0, "83ec9e806052195157e9503fffd782bba6b7ec550a7d0873bddbe0bea9d36b5f"),
    ("is-cayley --group Z6 --set 1,5 --format json", 0, "019c06cba8a87f073d02cc349fe7c8f61812a51a301ac0b8def6cbcefb0e6b99"),
    ("is-cayley --group Z6 --set 1,5 --format table", 0, "7a69a5fde19e650e6e344805b15c35ac71f0949a849ed2ff73405c30d805c35b"),
    ("is-cayley --group Z5 --set 1 --directed --format json", 0, "faaaa1f55ec1738d9c1a690838183845206929709193bb46b26d4e25e1f73eb7"),
    ("is-cayley --group Z5 --set 1 --directed --format table", 0, "bff002447f7b436d3b068b8f685211ccc54c8d4ed6ad59b42bd6f6e1f138cef2"),
    ("is-cayley --group S3 --format json", 0, "cd751d6362a1e706b4eaa7f9ad329d64f81b7ebc6e8d6de05dcd29ea18b87297"),
    ("is-cayley --group S3 --format table", 0, "36bdb31f1bc512d875b3427c8ee49029fd69f19131974a26edbefe86580e72e2"),
    ("is-cayley --group Z7 --set '' --format json", 0, "03a00619a8d9ae43e1f66e90caf576a7ad8089e9a05c088a732ad56b74ad8624"),
    ("is-cayley --group Z7 --set '' --format table", 0, "0ace19d60efd9827c90da132458f708d85d1cc06255d013b2eb542769ac46cd8"),
    ("aut --group Z6 --set 1,5 --format json", 0, "6f3430d078d031ed71702f514d3f4ae7cf0e071891fe38391600301470d6065f"),
    ("aut --group Z6 --set 1,5 --format table", 0, "2af49bea8d57f35f30fe9ee7a8536ea248d7598c6f45585a7a2b4f6e5d673f72"),
    # the theorem table over the whole catalog, and the left-fold labels of a
    # three-factor product, recorded before the catalog was spelled as specs
    ("verify", 0, "beee4bd9b62fdbda7eb98da446ab933770250cd3c10df0a74be05811e936fc76"),
    ("verify --format json", 0, "c7ca545a84c473097569bbfaf59c4494267c52e96d140dec328bb3b8bd198594"),
    ("power --group Z2xZ2xZ2 --format dot", 0, "7b57d36567a2b67652ddd9b6b0c0f18ea392396b11c25e5b72a7171ff6ff23b5"),
]


@pytest.mark.parametrize("argv, code, digest", CLI_OUTPUT_DIGESTS,
                         ids=[case[0] for case in CLI_OUTPUT_DIGESTS])
def test_construction_output_is_byte_identical(capsys, argv: str, code: int, digest: str) -> None:
    got_code, out = run(capsys, *shlex.split(argv))
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest

