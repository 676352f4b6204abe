"""The CLI's command table: each subcommand takes only the flags it reads.

Callers outside tier-1 build command lines too: the CI workflow's smoke
steps and :func:`repro.experiments.dispatch._worker_command`, which
starts every shard worker.  Each of those lines must parse, and carry its
values to the dests the handler reads.
"""

import shlex
from pathlib import Path

import pytest

from repro import telemetry
from repro.experiments import __main__ as cli
from repro.experiments.dispatch import _worker_command

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def ci_invocations():
    """``(argv, expect_usage_error)`` per CLI call in the CI workflow.

    A call CI expects to fail is written ``... || code=$?`` and followed
    by a check that the code is 2.
    """
    text = CI.read_text().replace("\\\n", " ")
    calls = []
    for line in text.splitlines():
        _, found, rest = line.partition("python -m repro.experiments ")
        if not found:
            continue
        lexer = shlex.shlex(rest, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        argv, operator = [], None
        for token in lexer:
            if token in ("|", "||", ">", ";", ")"):
                operator = token
                break
            argv.append(token)
        fails = operator == "||" and next(lexer, None) == "code=$?"
        calls.append((argv, fails))
    return calls


def assert_carried(args, argv):
    """Every ``--flag value`` (and positional) of ``argv`` reached ``args``."""
    tokens = argv[1:]
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if not token.startswith("--"):
            assert token in vars(args).values(), token
            index += 1
            continue
        dest = token[2:].replace("-", "_")
        value = tokens[index + 1] if index + 1 < len(tokens) else None
        if value is None or value.startswith("--"):
            assert getattr(args, dest) is True, token
            index += 1
        else:
            assert str(getattr(args, dest)) == value, token
            index += 2


CALLS = ci_invocations()


def test_ci_workflow_has_cli_calls():
    assert len(CALLS) >= 15
    assert sum(fails for _, fails in CALLS) == 2


@pytest.mark.parametrize(
    "argv, fails", CALLS, ids=[" ".join(argv) for argv, _ in CALLS]
)
def test_ci_command_lines_parse(argv, fails, capsys):
    parser = cli.build_parser()
    if fails:
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err
        return
    args = parser.parse_args(argv)
    assert args.command == argv[0]
    assert_carried(args, argv)


def test_worker_command_line_parses(tmp_path):
    telemetry.configure(tmp_path / "traces")
    try:
        command = _worker_command(
            tmp_path / "shard-000.json",
            tmp_path / "worker-0",
            tmp_path / "cache",
        )
    finally:
        telemetry.disable()
    assert command[1:4] == ["-m", "repro.experiments", "worker"]
    args = cli.build_parser().parse_args(command[3:])
    assert args.manifest == str(tmp_path / "shard-000.json")
    assert args.store_dir == str(tmp_path / "worker-0")
    assert args.cache_dir == str(tmp_path / "cache")
    assert args.trace_dir == str(tmp_path / "traces")
    assert args.resume is True


@pytest.mark.parametrize("name", list(cli.commands()))
def test_every_command_has_help(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([name, "--help"])
    assert exit_info.value.code == 0
    assert f"usage: python -m repro.experiments {name}" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fig09", "--store-dir", "X", "--workers", "4"], "--store-dir"),
        (["store", "ls", "--store-dir", "S", "--workers", "4"], "--workers"),
        (["worker", "shard-000.json", "--store-dir", "S", "--networks", "3"],
         "--networks"),
        (["render", "fig03", "--store-dir", "S", "--no-resume"],
         "--no-resume"),
    ],
    ids=["fig09-store-dir", "store-workers", "worker-networks",
         "render-no-resume"],
)
def test_unread_flag_is_usage_error(argv, flag, tmp_path, capsys,
                                    monkeypatch):
    # Each of these used to exit 0 (or fail on a flag its command never
    # reads) with the flag silently ignored.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert f"unrecognized arguments: {flag}" in error
    assert not list(tmp_path.iterdir())
