"""Untrusted text loaders fail with their documented error type only.

Each property starts from valid inputs (the loaders' own seeds: the
repo's rule files, assembly and R8C programs) and applies a few random
edits: a span deleted, duplicated or replaced, or characters inserted.
Whatever the result, the loader either accepts it or raises its
documented error; any other exception is a bug.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import programs
from repro.apps.edge_detection import worker_c_source, worker_source
from repro.cc import CcError, compile_source
from repro.r8 import AsmError, assemble
from repro.telemetry.alerts import RuleError, parse_rules

RULE_SEEDS = [
    """
# fires on any active link, pends one stride first
alert link_hot
    expr: link_util{link=~"router0.*"} > 0.9
    for: 500
    severity: page
    annotation: link {{link}} utilisation {{value}}

slo delivery_latency
    expr: latency_p99 <= 120
    target: 0.99
    window: 50000
    burn: 2.0
""",
    "alert busy\n    expr: in_flight > 100\n",
    'alert slow\n    expr: cpu_ipc{cpu="proc1"} < 0.5\n    for: 64\n',
]

ASM_SEEDS = [
    worker_source(),
    programs.sum_range(10),
    programs.fibonacci(8),
    programs.echo_scanf(2),
    programs.instruction_mix(2),
]

C_SEEDS = [
    worker_c_source(),
    "int g = 10;\nvoid main() { int x = 32; printf(g + x); halt(); }\n",
    """
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
void main() {
    int i = 0;
    while (i < 8) { printf(fib(i)); i += 1; }
    halt();
}
""",
]

#: characters the three grammars give meaning to, and a few they do not
ALPHABET = list(
    "(){}[];,:=+-*/%<>!&|^~#\"'\\ \n\t0123456789xabfhRrLlJjD_.$@"
) + ["\x00", "é", " "]


@st.composite
def mutated(draw, seeds):
    """A seed with one to four random edits."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 16)))
        edit = draw(st.sampled_from(["delete", "duplicate", "replace", "insert"]))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            noise = "".join(draw(st.lists(st.sampled_from(ALPHABET), max_size=6)))
            text = text[:i] + noise + text[j if edit == "replace" else i:]
    return text


PROPERTY = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROPERTY
@given(mutated(RULE_SEEDS))
def test_parse_rules_raises_only_rule_error(text):
    try:
        parse_rules(text)
    except RuleError:
        pass


@PROPERTY
@given(mutated(ASM_SEEDS))
def test_assemble_raises_only_asm_error(text):
    try:
        assemble(text)
    except AsmError:
        pass


@PROPERTY
@given(mutated(C_SEEDS))
def test_compile_source_raises_only_cc_error(text):
    try:
        compile_source(text)
    except CcError:
        pass
