"""The full-system time-travel debugger.

:class:`SystemDebugger` wraps one live
:class:`~repro.core.platform.PlatformSession` (system model + simulator
+ host software) behind the same scriptable command interface as the
R8-only :class:`~repro.r8.debugger.Debugger` — ``execute`` one line,
get its textual output back — and delegates the per-core commands
(``regs``/``mem``/``dis``/``where``/``break``) to per-processor R8
debuggers through :class:`CoreAdapter`.

Break conditions span every IP:

* ``break <pid> <addr>`` — PC breakpoint on either CPU (edge-triggered
  per instruction visit, so multi-cycle FSM states hit once).
* ``watch <target> <addr> [r|w|rw]`` — memory watchpoint on a
  processor's local memory or a Memory IP.  Hooked below the service
  FSM, so it fires for the core's own loads/stores *and* for NUMA
  traffic arriving over the NoC — a remote write into ``proc2``'s
  memory trips ``watch 2 0x300`` no matter who issued it.  Instruction
  fetches go through the hook-free fast path and never fire.
* ``pbreak <target>`` — a packet finishing reassembly at an IP's
  network interface.
* ``lbreak <x> <y> <port>`` — activity (a tx toggle) on one router
  output link.
* ``hbreak printf|scanf|readreturn|any`` — a board->host frame landing
  at the host.
* ``expr <name> <python-expr>`` — a watch expression over the live
  ``probe_state`` probes; fires on a falsy->truthy edge.

Time travel restores the nearest ring checkpoint at or before the
target cycle and deterministically re-executes with all break
conditions disarmed (the telemetry stream is truncated to the
checkpoint's high-water mark first, so replay re-emits the tail without
duplicates).  Because the whole simulation is bit-deterministic, a
condition hit, reversed over, and run again hits at the same cycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..noc.flit import encode_address
from ..noc.routing import Port
from ..r8.assembler import ObjectCode, assemble
from ..r8.debugger import Debugger as R8Debugger
from ..r8.debugger import DebuggerError
from ..serial import protocol
from ..sim import (
    CheckpointError,
    CheckpointRing,
    SimulationTimeout,
    VcdWriter,
    save_checkpoint,
)
from ..sim.checkpoint import restore_checkpoint

#: board->host frame class name -> hbreak kind token
_FRAME_KINDS = {
    "ReadReturnFrame": "readreturn",
    "PrintfFrame": "printf",
    "ScanfFrame": "scanf",
}

_HELP = """\
system debugger commands:
  cycle                       current simulation cycle
  step [n]                    advance n cycles (default 1)
  continue [max]              run until a break condition or all HALT
  break <pid> <addr>          PC breakpoint (symbol or address)
  unbreak <pid> <addr>        clear a PC breakpoint
  watch <tgt> <addr> [r|w|rw] memory watchpoint (default w)
  unwatch <tgt> <addr>        clear a memory watchpoint
  pbreak <tgt> / punbreak     break on packet arrival at an NI
  lbreak <x> <y> <port>       break on activity on a router output link
  lunbreak <x> <y> <port>     clear a link break
  hbreak <kind> / hunbreak    break on host frames (printf|scanf|readreturn|any)
  expr <name> <python-expr>   watch expression over probe_state dicts
  unexpr <name>               drop a watch expression
  info                        all break conditions, ring state, last hits
  regs <pid>                  core registers (delegated)
  mem <tgt> <addr> [n]        dump memory words
  dis <pid> <addr> [n]        disassemble (delegated)
  where <pid>                 PC context (delegated)
  probe <tgt>                 probe_state as JSON
  sync                        host baud sync
  load <pid> <file>           load a program through the host
  activate <pid>              activate a processor
  hostwrite <tgt> <addr> <w>+ queue a host write (non-blocking)
  hostread <tgt> <addr> <n>   blocking host read
  answer <value>              answer the oldest pending scanf
  checkpoint <file>           save a full-system checkpoint
  restore <file>              restore a checkpoint file
  ring                        checkpoint ring summary
  reverse-step [n]            go back n cycles (default 1; alias rstep)
  goto <cycle>                travel to an absolute cycle
  vcdslice <file>             write the captured waveform window as VCD
targets: a processor id (1, 2, ...), memN, or serial"""


class CoreAdapter:
    """R8Simulator-shaped facade over one :class:`ProcessorIp`.

    Exposes exactly the surface the r8 debugger's inspection commands
    touch — ``state``, ``dump_memory``, ``memory_words`` and the
    ``breakpoints``/``watchpoints`` sets — so per-core ``regs``, ``mem``,
    ``dis``, ``where``, ``break`` and ``info`` work unchanged against a
    core embedded in the full system.  Memory reads go through the
    hook-free ``fetch_word`` path: inspecting memory from the debugger
    must never trip a watchpoint.
    """

    def __init__(self, proc):
        self.proc = proc
        self.breakpoints: Set[int] = set()
        self.watchpoints: Set[int] = set()

    @property
    def state(self):
        return self.proc.cpu.state

    @property
    def memory_words(self) -> int:
        return self.proc.banks.depth

    def dump_memory(self, start: int, count: int) -> List[int]:
        banks = self.proc.banks
        return [banks.fetch_word((start + i) % banks.depth) for i in range(count)]


def _load_object(path: str) -> ObjectCode:
    """Object file or assembly source, by extension (CLI convention)."""
    text = Path(path).read_text()
    if path.endswith((".obj", ".hex")):
        return ObjectCode.from_text(text)
    return assemble(text, filename=path)


class SystemDebugger:
    """Scriptable debugger over one live platform session.

    Attaching starts the periodic checkpoint ring (the origin entry is
    recorded immediately and pinned, bounding how far back time travel
    reaches) and a VCD capture of the serial lines, and registers one
    kernel watcher evaluating the cycle-sampled break conditions.
    """

    def __init__(
        self,
        session,
        checkpoint_interval: int = 1000,
        checkpoint_capacity: int = 8,
        vcd_wires=None,
    ):
        self.session = session
        self.sim = session.sim
        self.system = session.system
        self.host = session.host
        self.sink = session.telemetry
        self.ring = CheckpointRing(
            self.sim,
            interval=checkpoint_interval,
            capacity=checkpoint_capacity,
            sink=self.sink,
        ).attach()
        # advertise the ring so the live observation plane can mark
        # restore points in its frames without knowing about debuggers
        self.sim.checkpoint_ring = self.ring
        self.vcd = VcdWriter(
            list(vcd_wires)
            if vcd_wires is not None
            else [self.system.rxd, self.system.txd]
        )
        self.sim.add_watcher(self.vcd.sample)

        self._cores: Dict[int, R8Debugger] = {}
        #: (target name, address) -> "r" | "w" | "rw"
        self._watch_conds: Dict[Tuple[str, int], str] = {}
        self._hooked_banks: Set[str] = set()
        self._pbreaks: Set[str] = set()
        self._hooked_nis: Set[str] = set()
        self._hbreaks: Set[str] = set()
        self._frame_hooked = False
        #: (x, y, port) -> last seen tx value (edge detector)
        self._lbreaks: Dict[Tuple[int, int, Port], Optional[int]] = {}
        #: name -> {"src", "code", "last"}
        self._exprs: Dict[str, dict] = {}
        self._last_pc: Dict[int, int] = {}
        self._hits: List[str] = []
        self._replaying = False
        self._pending_record = False
        self._hook_host_sends()

        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "help": lambda args: _HELP,
            "cycle": self._cmd_cycle,
            "step": self._cmd_step,
            "continue": self._cmd_continue,
            "break": self._cmd_break,
            "unbreak": self._cmd_unbreak,
            "watch": self._cmd_watch,
            "unwatch": self._cmd_unwatch,
            "pbreak": self._cmd_pbreak,
            "punbreak": self._cmd_punbreak,
            "lbreak": self._cmd_lbreak,
            "lunbreak": self._cmd_lunbreak,
            "hbreak": self._cmd_hbreak,
            "hunbreak": self._cmd_hunbreak,
            "expr": self._cmd_expr,
            "unexpr": self._cmd_unexpr,
            "info": self._cmd_info,
            "regs": self._cmd_delegate,
            "dis": self._cmd_delegate,
            "where": self._cmd_delegate,
            "mem": self._cmd_mem,
            "probe": self._cmd_probe,
            "sync": self._cmd_sync,
            "load": self._cmd_load,
            "activate": self._cmd_activate,
            "hostwrite": self._cmd_hostwrite,
            "hostread": self._cmd_hostread,
            "answer": self._cmd_answer,
            "checkpoint": self._cmd_checkpoint,
            "restore": self._cmd_restore,
            "ring": lambda args: self.ring.describe(),
            "reverse-step": self._cmd_reverse_step,
            "goto": self._cmd_goto,
            "vcdslice": self._cmd_vcdslice,
        }
        self._aliases = {"c": "continue", "rstep": "reverse-step", "b": "break"}
        self.sim.add_watcher(self._on_cycle)
        self._prime()

    def detach(self) -> None:
        """Remove the debugger's kernel watchers (hooks stay installed
        but go inert: their condition sets are only mutable through the
        debugger)."""
        self.sim.remove_watcher(self._on_cycle)
        self.sim.remove_watcher(self.vcd.sample)
        for proc in self.system.processors.values():
            proc.observed = False
        self.ring.detach()
        if getattr(self.sim, "checkpoint_ring", None) is self.ring:
            self.sim.checkpoint_ring = None

    # -- command dispatch --------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns its textual output."""
        parts = line.split()
        if not parts:
            return ""
        name, args = parts[0].lower(), parts[1:]
        name = self._aliases.get(name, name)
        handler = self._commands.get(name)
        if handler is None:
            raise DebuggerError(
                f"unknown command {name!r}; known: {sorted(self._commands)}"
            )
        try:
            if name in ("regs", "dis", "where"):
                return handler([name] + args)
            return handler(args)
        finally:
            self._observe()

    def _observe(self) -> None:
        """Mark the cores a break condition reads every cycle (a
        breakpoint on the core, a watchpoint on its memory, or any
        expression) as observed, so that they are evaluated through
        their poll loops instead of sleeping in them; a core whose mark
        changes is woken, to be evaluated under the new one."""
        watched = {name for name, _ in self._watch_conds}
        for pid, proc in self.system.processors.items():
            dbg = self._cores.get(pid)
            observed = (
                bool(self._exprs)
                or proc.name in watched
                or (dbg is not None and bool(dbg.sim.breakpoints))
            )
            if observed != proc.observed:
                proc.observed = observed
                proc.wake()

    def run_script(self, script: str) -> List[str]:
        """Execute a newline-separated command script."""
        outputs = []
        for line in script.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                outputs.append(self.execute(line))
        return outputs

    # -- target resolution -------------------------------------------------

    def _pid(self, token: str) -> int:
        tok = token[4:] if token.startswith("proc") else token
        try:
            pid = int(tok, 0)
        except ValueError:
            raise DebuggerError(f"not a processor id: {token!r}") from None
        if pid not in self.system.processors:
            raise DebuggerError(
                f"no processor {pid}; have {sorted(self.system.processors)}"
            )
        return pid

    def _core(self, pid: int) -> R8Debugger:
        if pid not in self._cores:
            self._cores[pid] = R8Debugger(
                simulator=CoreAdapter(self.system.processors[pid])
            )
        dbg = self._cores[pid]
        # symbol tables live on the ProcessorIp (stashed by the host at
        # load time, and rebuilt by checkpoint restore) — refresh so
        # `break main` resolves after either path
        symbols = self.system.processors[pid].symbols
        if symbols:
            dbg.symbols.update(symbols)
        return dbg

    def _banks(self, token: str):
        """(canonical name, MemoryBanks, pid-or-None) for a memory target."""
        if token.startswith("mem"):
            try:
                mem = self.system.memories[int(token[3:] or "0")]
            except (ValueError, IndexError):
                raise DebuggerError(f"no memory IP {token!r}") from None
            return mem.name, mem.banks, None
        pid = self._pid(token)
        proc = self.system.processors[pid]
        return proc.name, proc.banks, pid

    def _ni(self, token: str):
        """(canonical name, NetworkInterface) for any NoC endpoint."""
        if token == "serial":
            return "serial", self.system.serial.ni
        if token.startswith("mem"):
            name, _, _ = self._banks(token)
            return name, self.system.memories[int(token[3:] or "0")].ni
        pid = self._pid(token)
        proc = self.system.processors[pid]
        return proc.name, proc.ni

    def _addr_of(self, token: str) -> Tuple[int, int]:
        """NoC (x, y) address of a target, for host transactions."""
        if token == "serial":
            return self.system.config.serial
        if token.startswith("mem"):
            try:
                return self.system.config.memories[int(token[3:] or "0")]
            except (ValueError, IndexError):
                raise DebuggerError(f"no memory IP {token!r}") from None
        return self.system.config.processors[self._pid(token)]

    def _resolve(self, token: str, addr_token: str) -> int:
        """Resolve an address argument, using the core's symbol table
        when the target is a processor."""
        if not token.startswith("mem") and token != "serial":
            return self._core(self._pid(token)).resolve(addr_token)
        try:
            return int(addr_token, 0)
        except ValueError:
            raise DebuggerError(f"not an address: {addr_token!r}") from None

    # -- break machinery ---------------------------------------------------

    def _hook_host_sends(self) -> None:
        """Checkpoint after every host->board injection.

        Bytes queued on the host UART by Python calls (``sync``,
        ``load``, ``hostwrite``, scanf answers) are *inputs* to the
        simulation, not products of it, so deterministic replay can only
        reproduce them from a checkpoint taken after they were queued.
        Wrapping the host's send methods marks a ring record, which the
        cycle watcher performs at the next cycle boundary (the send may
        happen mid-cycle, e.g. an auto-answered scanf inside ``eval``,
        where snapshotting would be unsound).
        """
        host = self.host

        def mark() -> None:
            if not self._replaying:
                self._pending_record = True

        orig_byte, orig_bytes = host.uart_tx.send_byte, host.uart_tx.send_bytes

        def send_byte(byte: int):
            result = orig_byte(byte)
            mark()
            return result

        def send_bytes(data):
            result = orig_bytes(data)
            mark()
            return result

        host.uart_tx.send_byte = send_byte
        host.uart_tx.send_bytes = send_bytes

    def _record_hit(self, desc: str) -> None:
        if self._replaying:
            return
        self._hits.append(f"{desc} at cycle {self.sim.cycle}")
        if self.sink is not None:
            self.sink.instant("checkpoint", "debug_break", self.sim.cycle, hit=desc)

    def _on_cycle(self, cycle: int) -> None:
        if self._pending_record:
            self._pending_record = False
            self.ring.record()
        armed = not self._replaying
        for pid, dbg in self._cores.items():
            bps = dbg.sim.breakpoints
            if not bps:
                continue
            proc = self.system.processors[pid]
            pc = proc.cpu.pc
            if pc != self._last_pc.get(pid):
                self._last_pc[pid] = pc
                if armed and pc in bps and not proc.cpu.halted:
                    self._record_hit(f"breakpoint proc{pid} pc={pc:04x}")
        for key, last in self._lbreaks.items():
            x, y, port = key
            tx = self.system.mesh.router((x, y)).out_ch[port].tx.value
            if tx != last:
                self._lbreaks[key] = tx
                if armed and last is not None:
                    self._record_hit(
                        f"link activity router({x},{y}).{port.name.lower()}"
                    )
        if self._exprs:
            env = self._expr_env()
            for name, rec in self._exprs.items():
                try:
                    value = bool(eval(rec["code"], {"__builtins__": {}}, env))
                except Exception:
                    value = False
                if value and not rec["last"] and armed:
                    self._record_hit(f"expression {name!r} ({rec['src']}) true")
                rec["last"] = value

    def _expr_env(self) -> dict:
        env = {"cycle": self.sim.cycle, "stats": self.system.stats}
        for pid, proc in self.system.processors.items():
            env[f"proc{pid}"] = proc.probe_state()
        return env

    def _prime(self) -> None:
        """Reset every edge detector to the current state so resuming
        (after attach, restore or replay) never fires a stale edge."""
        for pid, proc in self.system.processors.items():
            self._last_pc[pid] = proc.cpu.pc
        for key in self._lbreaks:
            x, y, port = key
            self._lbreaks[key] = (
                self.system.mesh.router((x, y)).out_ch[port].tx.value
            )
        if self._exprs:
            env = self._expr_env()
            for rec in self._exprs.values():
                try:
                    rec["last"] = bool(
                        eval(rec["code"], {"__builtins__": {}}, env)
                    )
                except Exception:
                    rec["last"] = False

    def _ensure_bank_hook(self, name: str, banks) -> None:
        if name in self._hooked_banks:
            return

        def hook(is_write: bool, addr: int, value: int, _name=name) -> None:
            mode = self._watch_conds.get((_name, addr))
            if mode is None:
                return
            if ("w" if is_write else "r") not in mode:
                return
            kind = "write" if is_write else "read"
            self._record_hit(
                f"{kind} watchpoint {_name}@{addr:04x} value={value:04x}"
            )

        banks.watch = hook
        self._hooked_banks.add(name)

    def _ensure_ni_hook(self, name: str, ni) -> None:
        if name in self._hooked_nis:
            return

        def hook(_ni, packet, cycle, _name=name) -> None:
            if _name in self._pbreaks:
                self._record_hit(
                    f"packet at {_name} ({len(packet.payload)} payload flits)"
                )

        ni.on_packet = hook
        self._hooked_nis.add(name)

    def _ensure_frame_hook(self) -> None:
        if self._frame_hooked:
            return

        def hook(message, cycle) -> None:
            kind = _FRAME_KINDS.get(type(message).__name__, "other")
            if "any" in self._hbreaks or kind in self._hbreaks:
                self._record_hit(f"host {kind} frame")

        self.host.on_frame = hook
        self._frame_hooked = True

    # -- execution commands ------------------------------------------------

    def _cmd_cycle(self, args: List[str]) -> str:
        return f"cycle {self.sim.cycle}"

    def _cmd_step(self, args: List[str]) -> str:
        count = int(args[0]) if args else 1
        self._hits.clear()
        self.sim.step(count)
        out = [f"cycle {self.sim.cycle}"]
        out += self._hits
        return "\n".join(out)

    def _quiet(self) -> bool:
        """Nothing left to run: every core halted, the NoC drained and
        the host link silent (so a queued ``hostwrite`` still lands
        before an otherwise-idle ``continue`` returns)."""
        return (
            self.system.all_halted
            and self.system.idle
            and not self.host.uart_tx.busy
            and self.host.is_quiescent()
        )

    def _cmd_continue(self, args: List[str]) -> str:
        budget = int(args[0]) if args else 1_000_000
        self._hits.clear()
        self._prime()
        try:
            self.sim.run_until(
                lambda: bool(self._hits) or self._quiet(),
                max_cycles=budget,
                label="debugger continue",
            )
        except SimulationTimeout:
            return f"no break condition hit in {budget} cycles (cycle {self.sim.cycle})"
        if self._hits:
            return "\n".join(self._hits + [f"stopped at cycle {self.sim.cycle}"])
        return f"system quiescent at cycle {self.sim.cycle}"

    # -- break condition commands ------------------------------------------

    def _cmd_break(self, args: List[str]) -> str:
        if len(args) < 2:
            raise DebuggerError("break needs <pid> <addr>")
        return self._core(self._pid(args[0])).execute(f"break {args[1]}")

    def _cmd_unbreak(self, args: List[str]) -> str:
        if len(args) < 2:
            raise DebuggerError("unbreak needs <pid> <addr>")
        return self._core(self._pid(args[0])).execute(f"unbreak {args[1]}")

    def _cmd_watch(self, args: List[str]) -> str:
        if len(args) < 2:
            raise DebuggerError("watch needs <target> <addr> [r|w|rw]")
        mode = args[2].lower() if len(args) > 2 else "w"
        if mode not in ("r", "w", "rw"):
            raise DebuggerError(f"watch mode must be r, w or rw, not {mode!r}")
        name, banks, pid = self._banks(args[0])
        addr = self._resolve(args[0], args[1])
        # credit sleep spans first: the condition must not see the reads
        # of cycles already simulated
        self.sim.settle()
        self._watch_conds[(name, addr)] = mode
        self._ensure_bank_hook(name, banks)
        if pid is not None:
            self._core(pid).sim.watchpoints.add(addr)
        return f"watchpoint ({mode}) set at {name}@{addr:04x}"

    def _cmd_unwatch(self, args: List[str]) -> str:
        if len(args) < 2:
            raise DebuggerError("unwatch needs <target> <addr>")
        name, _, pid = self._banks(args[0])
        addr = self._resolve(args[0], args[1])
        self._watch_conds.pop((name, addr), None)
        if pid is not None:
            self._core(pid).sim.watchpoints.discard(addr)
        return f"watchpoint cleared at {name}@{addr:04x}"

    def _cmd_pbreak(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("pbreak needs a target")
        name, ni = self._ni(args[0])
        self._pbreaks.add(name)
        self._ensure_ni_hook(name, ni)
        return f"packet break set at {name}"

    def _cmd_punbreak(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("punbreak needs a target")
        name, _ = self._ni(args[0])
        self._pbreaks.discard(name)
        return f"packet break cleared at {name}"

    def _parse_link(self, args: List[str]) -> Tuple[int, int, Port]:
        if len(args) < 3:
            raise DebuggerError("link breaks need <x> <y> <port>")
        x, y = int(args[0], 0), int(args[1], 0)
        if (x, y) not in self.system.mesh.routers:
            raise DebuggerError(f"no router at ({x}, {y})")
        try:
            port = Port[args[2].upper()]
        except KeyError:
            raise DebuggerError(
                f"port must be one of {[p.name.lower() for p in Port]}"
            ) from None
        if self.system.mesh.router((x, y)).out_ch[port] is None:
            raise DebuggerError(f"router ({x}, {y}) has no {args[2]} output")
        return x, y, port

    def _cmd_lbreak(self, args: List[str]) -> str:
        x, y, port = self._parse_link(args)
        self._lbreaks[(x, y, port)] = (
            self.system.mesh.router((x, y)).out_ch[port].tx.value
        )
        return f"link break set on router({x},{y}).{port.name.lower()}"

    def _cmd_lunbreak(self, args: List[str]) -> str:
        x, y, port = self._parse_link(args)
        self._lbreaks.pop((x, y, port), None)
        return f"link break cleared on router({x},{y}).{port.name.lower()}"

    def _cmd_hbreak(self, args: List[str]) -> str:
        kinds = set(_FRAME_KINDS.values()) | {"any"}
        if not args or args[0].lower() not in kinds:
            raise DebuggerError(f"hbreak needs one of {sorted(kinds)}")
        self._hbreaks.add(args[0].lower())
        self._ensure_frame_hook()
        return f"host break set on {args[0].lower()} frames"

    def _cmd_hunbreak(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("hunbreak needs a frame kind")
        self._hbreaks.discard(args[0].lower())
        return f"host break cleared on {args[0].lower()} frames"

    def _cmd_expr(self, args: List[str]) -> str:
        if len(args) < 2:
            raise DebuggerError("expr needs <name> <python-expr>")
        name, src = args[0], " ".join(args[1:])
        try:
            code = compile(src, f"<expr {name}>", "eval")
        except SyntaxError as exc:
            raise DebuggerError(f"bad expression: {exc}") from exc
        self._exprs[name] = {"src": src, "code": code, "last": False}
        self._prime()
        return f"expression {name!r} armed: {src}"

    def _cmd_unexpr(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("unexpr needs a name")
        self._exprs.pop(args[0], None)
        return f"expression {args[0]!r} dropped"

    def _cmd_info(self, args: List[str]) -> str:
        lines = [f"cycle {self.sim.cycle}", self.ring.describe()]
        bps = [
            f"  proc{pid} {addr:04x}"
            for pid, dbg in sorted(self._cores.items())
            for addr in sorted(dbg.sim.breakpoints)
        ]
        lines.append("breakpoints:" if bps else "breakpoints: none")
        lines += bps
        wps = [
            f"  {name}@{addr:04x} ({mode})"
            for (name, addr), mode in sorted(self._watch_conds.items())
        ]
        lines.append("watchpoints:" if wps else "watchpoints: none")
        lines += wps
        if self._pbreaks:
            lines.append("packet breaks: " + ", ".join(sorted(self._pbreaks)))
        if self._lbreaks:
            lines.append(
                "link breaks: "
                + ", ".join(
                    f"({x},{y}).{p.name.lower()}"
                    for x, y, p in sorted(self._lbreaks)
                )
            )
        if self._hbreaks:
            lines.append("host breaks: " + ", ".join(sorted(self._hbreaks)))
        for name, rec in sorted(self._exprs.items()):
            lines.append(f"expression {name}: {rec['src']}")
        if self._hits:
            lines.append("last hits:")
            lines += [f"  {h}" for h in self._hits]
        return "\n".join(lines)

    # -- inspection commands -----------------------------------------------

    def _cmd_delegate(self, args: List[str]) -> str:
        cmd, args = args[0], args[1:]
        if not args:
            raise DebuggerError(f"{cmd} needs a processor id")
        pid = self._pid(args[0])
        return self._core(pid).execute(" ".join([cmd] + args[1:]))

    def _cmd_mem(self, args: List[str]) -> str:
        if len(args) < 2:
            raise DebuggerError("mem needs <target> <addr> [n]")
        if not args[0].startswith("mem"):
            pid = self._pid(args[0])
            return self._core(pid).execute(" ".join(["mem"] + args[1:]))
        name, banks, _ = self._banks(args[0])
        start = self._resolve(args[0], args[1])
        count = int(args[2]) if len(args) > 2 else 8
        words = [
            banks.fetch_word((start + i) % banks.depth) for i in range(count)
        ]
        lines = []
        for i in range(0, len(words), 8):
            chunk = " ".join(f"{w:04x}" for w in words[i : i + 8])
            lines.append(f"{start + i:04x}: {chunk}")
        return "\n".join(lines)

    def _cmd_probe(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("probe needs a target")
        if args[0].startswith("mem") or args[0] == "serial":
            _, ni = self._ni(args[0])
            state = ni.probe_state()
        else:
            state = self.system.processors[self._pid(args[0])].probe_state()
        return json.dumps(state, sort_keys=True, default=list)

    # -- host commands ------------------------------------------------------

    def _cmd_sync(self, args: List[str]) -> str:
        if self.host.synced:
            return "already synced"
        self.host.sync()
        return f"synced at cycle {self.sim.cycle}"

    def _cmd_load(self, args: List[str]) -> str:
        if len(args) < 2:
            raise DebuggerError("load needs <pid> <file>")
        pid = self._pid(args[0])
        try:
            obj = _load_object(args[1])
        except OSError as exc:
            raise DebuggerError(f"cannot read {args[1]}: {exc}") from exc
        if not self.host.synced:
            self.host.sync()
        self.host.load_program(self.system.config.processors[pid], obj)
        return f"{obj.size_words} words -> proc{pid}"

    def _cmd_activate(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("activate needs a pid")
        pid = self._pid(args[0])
        self.host.activate(self.system.config.processors[pid])
        return f"proc{pid} activated at cycle {self.sim.cycle}"

    def _cmd_hostwrite(self, args: List[str]) -> str:
        if len(args) < 3:
            raise DebuggerError("hostwrite needs <target> <addr> <word>...")
        addr = self._resolve(args[0], args[1])
        words = [int(w, 0) & 0xFFFF for w in args[2:]]
        flit = encode_address(*self._addr_of(args[0]))
        # non-blocking by design: the frame is queued on the host UART
        # and lands while a later `continue` runs, so a watchpoint on
        # the written cell catches the write in flight
        self.host.uart_tx.send_bytes(protocol.frame_write(flit, addr, words))
        return f"write queued: {len(words)} word(s) -> {args[0]}@{addr:04x}"

    def _cmd_hostread(self, args: List[str]) -> str:
        if len(args) < 2:
            raise DebuggerError("hostread needs <target> <addr> [n]")
        addr = self._resolve(args[0], args[1])
        count = int(args[2]) if len(args) > 2 else 1
        words = self.host.read_memory(self._addr_of(args[0]), addr, count)
        return " ".join(f"{w:04x}" for w in words)

    def _cmd_answer(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("answer needs a value")
        self.host.answer_scanf(int(args[0], 0))
        return f"scanf answered with {int(args[0], 0):#06x}"

    # -- time travel --------------------------------------------------------

    def _cmd_checkpoint(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("checkpoint needs a file path")
        meta = {
            "mesh": list(self.system.config.mesh),
            "processors": sorted(self.system.processors),
        }
        path = save_checkpoint(self.sim, args[0], meta=meta)
        return f"checkpoint (cycle {self.sim.cycle}) -> {path}"

    def _cmd_restore(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("restore needs a file path")
        try:
            cycle = restore_checkpoint(self.sim, args[0])
        except CheckpointError as exc:
            raise DebuggerError(str(exc)) from exc
        self._rewind_vcd(cycle)
        self._prime()
        self._hits.clear()
        return f"restored to cycle {cycle}"

    def _cmd_reverse_step(self, args: List[str]) -> str:
        count = int(args[0]) if args else 1
        if count < 1:
            raise DebuggerError("reverse-step needs a positive count")
        origin = self.ring.entries[0].cycle
        target = max(origin, self.sim.cycle - count)
        self._travel(target)
        return f"cycle {self.sim.cycle}"

    def _cmd_goto(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("goto needs a cycle number")
        target = int(args[0], 0)
        if target < self.ring.entries[0].cycle:
            raise DebuggerError(
                f"cycle {target} is before the origin checkpoint "
                f"({self.ring.entries[0].cycle})"
            )
        self._travel(target)
        return f"cycle {self.sim.cycle}"

    def _travel(self, target: int) -> None:
        """Restore the nearest checkpoint at or before *target* (when
        moving backwards) and deterministically replay up to it with
        every break condition disarmed."""
        if target < self.sim.cycle:
            try:
                entry = self.ring.restore_nearest(target)
            except CheckpointError as exc:
                raise DebuggerError(str(exc)) from exc
            if self.sink is not None and entry.events_len is not None:
                self.sink.truncate_to(entry.events_len)
            self._rewind_vcd(entry.cycle)
        if target > self.sim.cycle:
            self._replaying = True
            try:
                self.sim.step(target - self.sim.cycle)
            finally:
                self._replaying = False
        self._hits.clear()
        self._prime()

    def _rewind_vcd(self, cycle: int) -> None:
        """Drop captured waveform changes after *cycle*; replay appends
        the (identical) tail again, keeping the VCD timeline monotone."""
        vcd = self.vcd
        vcd._changes = [c for c in vcd._changes if c[0] <= cycle]
        vcd._cycles = cycle
        for wire in vcd.wires:
            if isinstance(wire.value, int):
                vcd._last[wire.name] = wire.value

    def _cmd_vcdslice(self, args: List[str]) -> str:
        if not args:
            raise DebuggerError("vcdslice needs a file path")
        path = self.vcd.write(args[0])
        return f"waveform ({len(self.vcd._changes)} changes) -> {path}"
