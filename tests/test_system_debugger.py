"""Tests for the full-system time-travel debugger."""

import json

import pytest

from repro import MultiNoCPlatform, SystemDebugger, TelemetrySink
from repro.r8.debugger import DebuggerError

from .test_equivalence import CONSUMER, PRODUCER

PRINTER = """
start:  CLR  R0
        LDI  R2, 0xFFFF
        LDI  R1, 7
        ST   R1, R2, R0
mark:   LDI  R1, 9
        ST   R1, R2, R0
done:   HALT
"""


@pytest.fixture
def session():
    return MultiNoCPlatform.standard().launch(telemetry=TelemetrySink())


@pytest.fixture
def dbg(session):
    return SystemDebugger(session, checkpoint_interval=500)


def _start_sync(session, dbg):
    dbg.execute("sync")
    session.start(2, CONSUMER)
    session.start(1, PRODUCER)


class TestBasics:
    def test_help_and_cycle(self, dbg):
        assert "reverse-step" in dbg.execute("help")
        assert dbg.execute("cycle") == "cycle 0"

    def test_step_advances(self, dbg):
        out = dbg.execute("step 10")
        assert out.startswith("cycle 10")

    def test_unknown_command(self, dbg):
        with pytest.raises(DebuggerError, match="unknown command"):
            dbg.execute("frobnicate")

    def test_empty_line_is_noop(self, dbg):
        assert dbg.execute("") == ""

    def test_bad_target(self, dbg):
        with pytest.raises(DebuggerError, match="no processor"):
            dbg.execute("regs 9")
        with pytest.raises(DebuggerError, match="no memory"):
            dbg.execute("mem mem7 0")

    def test_run_script_skips_comments(self, dbg):
        outputs = dbg.run_script("# comment\n\ncycle\nstep 1\n")
        assert len(outputs) == 2

    def test_sync_and_probe(self, session, dbg):
        assert "synced" in dbg.execute("sync")
        assert dbg.execute("sync") == "already synced"
        probe = json.loads(dbg.execute("probe 1"))
        assert probe["halted"] is True
        serial = json.loads(dbg.execute("probe serial"))
        assert "address" in serial


class TestBreakConditions:
    def test_pc_breakpoint_by_symbol(self, session, dbg):
        dbg.execute("sync")
        session.start(1, PRINTER)
        core = dbg._core(1)
        assert "mark" in core.symbols
        out = dbg.execute("break 1 mark")
        assert "breakpoint set" in out
        out = dbg.execute("continue")
        assert "breakpoint proc1" in out
        assert session.system.processors[1].cpu.state.pc == core.symbols["mark"]
        assert not session.system.processors[1].cpu.halted

    def test_unbreak_runs_to_halt(self, session, dbg):
        dbg.execute("sync")
        session.start(1, PRINTER)
        dbg.execute("break 1 mark")
        dbg.execute("unbreak 1 mark")
        out = dbg.execute("continue")
        assert "quiescent" in out
        assert session.system.processors[1].cpu.halted

    def test_remote_memory_watchpoint(self, session, dbg):
        """The acceptance scenario's first half: the producer's remote
        store into proc2's buffer trips a watchpoint set on proc2."""
        _start_sync(session, dbg)
        dbg.execute("watch 2 0x300 w")
        out = dbg.execute("continue")
        assert "write watchpoint proc2@0300" in out

    def test_unwatch(self, session, dbg):
        _start_sync(session, dbg)
        dbg.execute("watch 2 0x300 w")
        dbg.execute("unwatch 2 0x300")
        out = dbg.execute("continue")
        assert "quiescent" in out

    def test_watch_mode_validation(self, dbg):
        with pytest.raises(DebuggerError, match="mode"):
            dbg.execute("watch 1 0x10 x")

    def test_read_watchpoint_on_memory_ip(self, session, dbg):
        dbg.execute("sync")
        dbg.execute("watch mem0 0x40 r")
        dbg.execute("hostwrite mem0 0x40 0x1234")
        out = dbg.execute("continue")
        assert "quiescent" in out  # writes don't trip a read watch
        dbg.execute("hostread mem0 0x40 1")  # blocking: lands mid-read
        assert any("read watchpoint" in h for h in dbg._hits)

    def test_packet_break(self, session, dbg):
        dbg.execute("sync")
        dbg.execute("pbreak mem0")
        dbg.execute("hostwrite mem0 0x10 0xAB")
        out = dbg.execute("continue")
        assert "packet at mem0" in out

    def test_link_break(self, session, dbg):
        dbg.execute("sync")
        # the write frame exits the mesh at proc1's router local port
        proc_xy = session.system.config.processors[1]
        dbg.execute(f"lbreak {proc_xy[0]} {proc_xy[1]} local")
        dbg.execute("hostwrite 1 0x200 0x55")
        out = dbg.execute("continue")
        assert "link activity" in out

    def test_link_break_validation(self, dbg):
        with pytest.raises(DebuggerError, match="no router"):
            dbg.execute("lbreak 9 9 local")
        with pytest.raises(DebuggerError, match="port"):
            dbg.execute("lbreak 0 0 sideways")

    def test_host_frame_break(self, session, dbg):
        dbg.execute("sync")
        session.start(1, PRINTER)
        dbg.execute("hbreak printf")
        out = dbg.execute("continue")
        assert "host printf frame" in out
        # both printfs trip it; continue again catches the second
        out = dbg.execute("continue")
        assert "host printf frame" in out

    def test_expression_break(self, session, dbg):
        dbg.execute("sync")
        session.start(1, PRINTER)
        dbg.execute('expr halted proc1["halted"]')
        out = dbg.execute("continue")
        assert "expression 'halted'" in out
        assert session.system.processors[1].cpu.halted

    def test_bad_expression_rejected(self, dbg):
        with pytest.raises(DebuggerError, match="bad expression"):
            dbg.execute("expr broken this is not (python")

    def test_info_lists_conditions(self, session, dbg):
        dbg.execute("sync")
        dbg.execute("break 1 0x10")
        dbg.execute("watch 2 0x300 rw")
        dbg.execute("pbreak serial")
        dbg.execute("hbreak any")
        dbg.execute("expr e cycle > 99")
        out = dbg.execute("info")
        assert "proc1 0010" in out
        assert "proc2@0300 (rw)" in out
        assert "packet breaks: serial" in out
        assert "host breaks: any" in out
        assert "expression e: cycle > 99" in out
        assert "checkpoint ring" in out


class TestDelegation:
    def test_regs_and_where(self, session, dbg):
        dbg.execute("sync")
        session.start(1, PRINTER)
        dbg.execute("continue")
        out = dbg.execute("regs 1")
        assert "PC=" in out and "HALT" in out
        assert "->" in dbg.execute("where 1")

    def test_dis_uses_symbols(self, session, dbg):
        dbg.execute("sync")
        session.start(1, PRINTER)
        out = dbg.execute("dis 1 start 3")
        assert len(out.splitlines()) == 3

    def test_mem_proc_and_memory_ip(self, session, dbg):
        dbg.execute("sync")
        dbg.execute("hostwrite mem0 0x20 0xCAFE")
        dbg.execute("continue")
        out = dbg.execute("mem mem0 0x20 1")
        assert "cafe" in out
        dbg.execute("hostwrite 1 0x21 0xD00D")
        dbg.execute("continue")
        assert "d00d" in dbg.execute("mem 1 0x21 1")

    def test_mem_inspection_never_trips_watchpoints(self, session, dbg):
        dbg.execute("sync")
        dbg.execute("watch 1 0x30 rw")
        dbg.execute("mem 1 0x30 4")
        assert not dbg._hits


class TestHostCommands:
    def test_hostwrite_is_nonblocking(self, session, dbg):
        dbg.execute("sync")
        before = session.sim.cycle
        dbg.execute("hostwrite 1 0x40 1 2 3")
        assert session.sim.cycle == before  # nothing ran yet
        dbg.execute("continue")
        assert dbg.execute("hostread 1 0x40 3") == "0001 0002 0003"

    def test_load_and_activate(self, session, dbg, tmp_path):
        path = tmp_path / "p.asm"
        path.write_text(PRINTER)
        out = dbg.execute(f"load 1 {path}")
        assert "words -> proc1" in out
        dbg.execute("activate 1")
        dbg.execute("continue")
        assert session.host.monitor(1).printf_values == [7, 9]

    def test_answer_scanf(self, session, dbg):
        dbg.execute("sync")
        session.start(
            1,
            """
            CLR  R0
            LDI  R2, 0xFFFF
            LD   R1, R2, R0   ; scanf
            ST   R1, R2, R0   ; printf it back
            HALT
            """,
        )
        dbg.execute("hbreak scanf")
        dbg.execute("continue")
        dbg.execute("answer 0x2A")
        dbg.execute("hunbreak scanf")
        dbg.execute("continue")
        assert session.host.monitor(1).printf_values == [42]


class TestTimeTravel:
    def test_reverse_step_and_deterministic_rehit(self, session, dbg):
        """The ISSUE's acceptance scenario: remote watchpoint, hit,
        reverse-step >= 100 cycles, re-hit at the identical cycle."""
        _start_sync(session, dbg)
        dbg.execute("watch 2 0x300 w")
        first = dbg.execute("continue")
        hit_cycle = session.sim.cycle
        dbg.execute("reverse-step 150")
        assert session.sim.cycle == hit_cycle - 150
        again = dbg.execute("continue")
        assert session.sim.cycle == hit_cycle
        assert again == first

    def test_goto_forward_and_back(self, session, dbg):
        _start_sync(session, dbg)
        dbg.execute("step 2000")
        here = session.sim.cycle
        back = here - 800
        dbg.execute(f"goto {back}")
        assert session.sim.cycle == back
        dbg.execute(f"goto {here}")
        assert session.sim.cycle == here

    def test_goto_before_origin_rejected(self, session):
        session.sim.step(100)
        dbg = SystemDebugger(session, checkpoint_interval=500)
        with pytest.raises(DebuggerError, match="before the origin"):
            dbg.execute("goto 10")

    def test_replay_does_not_duplicate_telemetry(self, session, dbg):
        def workload_events():
            # ring "checkpoint" markers aren't re-recorded over an
            # already-covered span; compare the simulated events only
            return [
                (e.ts, e.name, e.track)
                for e in session.telemetry.events
                if e.track != "checkpoint"
            ]

        _start_sync(session, dbg)
        dbg.execute("step 3000")
        here = session.sim.cycle
        events = workload_events()
        dbg.execute("reverse-step 1000")
        # travel truncated the sink back to the checkpoint horizon
        assert len(workload_events()) <= len(events)
        dbg.execute(f"goto {here}")
        # forward replay re-emitted the identical tail
        assert workload_events() == events

    def test_replay_does_not_retrigger_breaks(self, session, dbg):
        _start_sync(session, dbg)
        dbg.execute("watch 2 0x300 w")
        dbg.execute("continue")
        hit = session.sim.cycle
        dbg.execute("reverse-step 200")
        dbg.execute(f"goto {hit}")  # forward replay crosses the write
        assert not dbg._hits

    def test_checkpoint_file_roundtrip(self, session, dbg, tmp_path):
        _start_sync(session, dbg)
        dbg.execute("step 3000")
        path = tmp_path / "session.ckpt"
        out = dbg.execute(f"checkpoint {path}")
        assert str(path) in out
        fingerprint = json.dumps(session.sim.snapshot()["components"])
        dbg.execute("step 500")
        assert "restored to cycle" in dbg.execute(f"restore {path}")
        assert (
            json.dumps(session.sim.snapshot()["components"]) == fingerprint
        )

    def test_vcdslice(self, session, dbg, tmp_path):
        dbg.execute("sync")
        path = tmp_path / "window.vcd"
        out = dbg.execute(f"vcdslice {path}")
        assert str(path) in out
        text = path.read_text()
        assert text.startswith("$date")
        # the sync byte toggled the serial lines inside the window
        assert "#" in text

    def test_vcd_stays_monotone_across_time_travel(
        self, session, dbg, tmp_path
    ):
        _start_sync(session, dbg)
        dbg.execute("step 1000")
        dbg.execute("reverse-step 400")
        dbg.execute("step 400")
        path = tmp_path / "tt.vcd"
        dbg.execute(f"vcdslice {path}")
        times = [
            int(line[1:])
            for line in path.read_text().splitlines()
            if line.startswith("#")
        ]
        assert times == sorted(times)
