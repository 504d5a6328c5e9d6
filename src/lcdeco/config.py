"""Run-configuration parsing and validation.

Grammar: line-oriented ``key = value``; ``#`` starts a comment (to end of
line; values cannot contain a literal '#'); ``[section]`` headers prefix
the keys that follow; a key that already contains a dot is taken as a
full dotted path regardless of the current section.  Validation collects
every problem (with line numbers where known) before failing, so a bad
file is reported once, completely.

`RunConfig` and `DeviceConfig` are the one field list: each default lives
in its record (the parser leaves absent keys to it), and the canonical
text walks the records' fields in declaration order.
"""

import math
import re
from dataclasses import dataclass, fields, is_dataclass, replace

from .circuit import CAP_CONVENTIONS
from .errors import ConfigError

SCENARIOS = ("derive-params", "fig2", "fig4", "oracle-check", "sw-check",
             "sweep")
MODES = ("dimensionless", "si")

# scenarios that sample D(t) or I(t) curves and therefore need alpha
CURVE_SCENARIOS = ("fig2", "fig4", "oracle-check", "sweep")

SQRT_HALF = 1.0 / math.sqrt(2.0)

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")

# the section of each RunConfig field that is not a [model] key ("" is the
# head of the file); DeviceConfig's fields are the [device] keys
_SECTION_OF = {"scenario": "", "mode": "", "out": "run"}


def alpha_tag(alpha):
    """An amplitude as it appears in file names and labels (%g: six
    significant digits, so close amplitudes can share a tag)."""
    return "%g" % alpha


@dataclass(frozen=True)
class DeviceConfig:
    c_j: float
    c_g: float
    l: float
    e_j0_kelvin: float
    n_g: float = 0.5
    v_g: float = None      # exclusive alternative to n_g
    phi_x: float = 0.0
    convention: str = "junction_C"


@dataclass(frozen=True)
class RunConfig:
    """A resolved run configuration.  Its field order, with DeviceConfig's
    in place of `device`, is the order of the canonical text, so it
    enters every config_sha256."""
    scenario: str
    mode: str = "dimensionless"
    # dimensionless model block (None in si mode)
    omega_a: float = None
    g: float = None
    theta: float = None
    # shared numerics
    alpha: tuple = ()
    dim: int = 64
    samples: int = 400
    t_max: float = None     # None → scenario default (runner decides)
    c0: float = SQRT_HALF   # qubit weights as given; see qubit_weights
    c1: float = SQRT_HALF
    device: DeviceConfig = None
    out: str = None

    @property
    def qubit_weights(self):
        """(c0, c1) normalized to |c0|² + |c1|² = 1."""
        norm = math.hypot(self.c0, self.c1)
        return self.c0 / norm, self.c1 / norm


# ---------------------------------------------------------------------------
# raw line scan

def _scan(text):
    """text → ({dotted_key: (raw_value, line_no)}, problems)."""
    entries = {}
    problems = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        msec = _SECTION_RE.match(line)
        if msec:
            section = msec.group(1)
            continue
        if "=" not in line:
            problems.append("line %d: expected 'key = value' or '[section]',"
                            " got %r" % (lineno, line))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            problems.append("line %d: empty key" % lineno)
            continue
        if "." not in key and section is not None:
            key = "%s.%s" % (section, key)
        if key in entries:
            problems.append("line %d: duplicate key %r (first set on line %d)"
                            % (lineno, key, entries[key][1]))
            continue
        entries[key] = (value, lineno)
    return entries, problems


# ---------------------------------------------------------------------------
# typed readers

class _Reader:
    """Pulls typed values out of the raw entry map, accumulating errors."""

    def __init__(self, entries, problems):
        self.entries = dict(entries)
        self.problems = problems

    def take(self, key, conv, default=None, required=False):
        if key not in self.entries:
            if required:
                self.problems.append("missing required key %r" % key)
            return default
        raw, lineno = self.entries.pop(key)
        try:
            return conv(raw)
        except ValueError as exc:
            self.problems.append("line %d: %s: %s" % (lineno, key, exc))
            return default

    def has(self, key):
        return key in self.entries

    def reject(self, key, why):
        _, lineno = self.entries.pop(key)
        self.problems.append("line %d: %s: %s" % (lineno, key, why))

    def either(self, key, alt):
        """Two exclusive keys: when both are given, `alt` is rejected and
        `key` kept.  Returns whether `alt` is the one given."""
        if self.has(key) and self.has(alt):
            self.reject(alt, "give either %s or %s, not both" % (key, alt))
        return self.has(alt)

    def leftovers(self):
        for key, (_, lineno) in sorted(self.entries.items(),
                                       key=lambda kv: kv[1][1]):
            self.problems.append("line %d: unknown key %r" % (lineno, key))


def _float(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValueError("expected a number, got %r" % raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number, got %r" % raw)
    return value


def _int(raw):
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("expected an integer, got %r" % raw)
    return value


def _float_list(raw):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated number list, got %r"
                         % raw)
    return tuple(_float(p) for p in parts)


def _choice(options):
    def conv(raw):
        if raw not in options:
            raise ValueError("expected one of %s, got %r"
                             % (", ".join(options), raw))
        return raw
    return conv


def _string(raw):
    if not raw:
        raise ValueError("expected a non-empty value")
    return raw


# ---------------------------------------------------------------------------
# validation

def _given(record, **values):
    """`record` built from the values read; an absent key (None) takes the
    record's default."""
    return record(**{k: v for k, v in values.items() if v is not None})


def parse_config(text):
    """Parse and validate; raises ConfigError carrying ALL problems."""
    entries, problems = _scan(text)
    r = _Reader(entries, problems)

    scenario = r.take("scenario", _choice(SCENARIOS), required=True)
    mode = r.take("mode", _choice(MODES))
    if scenario == "derive-params":
        if mode == "dimensionless":
            problems.append("scenario derive-params works on a [device] "
                            "block; set mode = si (or omit mode)")
        mode = "si"

    device = omega_a = g = theta = None
    if mode == "si":
        device = _read_device(r)
        for key in ("model.omega_a", "model.g", "model.gamma", "model.theta"):
            if r.has(key):
                r.reject(key, "derived from the device block in si mode")
    else:
        for key in [k for k in list(r.entries) if k.startswith("device.")]:
            r.reject(key, "device block is only read in si mode")
        omega_a = r.take("model.omega_a", _float, required=True)
        if r.either("model.g", "model.gamma"):
            gamma = r.take("model.gamma", _float)
            if gamma is not None and gamma < 0:
                problems.append("model.gamma must be nonnegative")
            elif gamma is not None and omega_a is not None:
                g = gamma * abs(omega_a - 1.0)
        elif r.has("model.g"):
            g = r.take("model.g", _float)
        else:
            problems.append("missing required key 'model.g' (or "
                            "'model.gamma') for dimensionless mode")
        theta = r.take("model.theta", _float, default=math.pi / 2)
        if omega_a is not None and omega_a <= 0:
            problems.append("model.omega_a must be positive")
        if g is not None and g < 0:
            problems.append("model.g must be nonnegative")

    alpha = r.take("model.alpha", _float_list)
    dim = r.take("model.dim", _int)
    samples = r.take("model.samples", _int)
    t_max = r.take("model.t_max", _float)
    c0 = r.take("model.c0", _float)
    c1 = r.take("model.c1", _float)
    # run.threads has no effect (scenarios run serially); it is still
    # validated so that existing configs that set it keep parsing
    threads = r.take("run.threads", _int)
    out = r.take("run.out", _string)
    r.leftovers()

    if scenario in CURVE_SCENARIOS and not alpha:
        problems.append("model.alpha: scenario %s needs a nonempty alpha "
                        "list" % scenario)
    elif scenario == "fig4" and len(alpha) > 1:
        problems.append("model.alpha: scenario fig4 takes exactly one alpha "
                        "(got %d)" % len(alpha))
    elif scenario == "fig2":
        # fig2 writes one fig2_alpha<tag>.csv per alpha
        tagged = {}
        for a in alpha:
            tag = alpha_tag(a)
            if tag in tagged:
                problems.append("model.alpha: %r and %r share the file tag "
                                "%r, so fig2 would write one CSV for both"
                                % (tagged[tag], a, tag))
            else:
                tagged[tag] = a
    if scenario == "fig4" and samples is not None and samples < 3:
        problems.append("model.samples: scenario fig4 differentiates the "
                        "numeric trace, so it needs at least 3 samples "
                        "(got %d)" % samples)
    if dim is not None and dim < 2:
        problems.append("model.dim must be >= 2")
    if samples is not None and samples < 2:
        problems.append("model.samples must be >= 2")
    if t_max is not None and t_max <= 0:
        problems.append("model.t_max must be positive")
    if threads is not None and threads < 1:
        problems.append("run.threads must be >= 1")
    if any(c is not None and c <= 0 for c in (c0, c1)):
        problems.append("model.c0 and model.c1 must be positive "
                        "(weights of the qubit superposition)")

    if problems:
        raise ConfigError(problems)

    return _given(RunConfig, scenario=scenario, mode=mode, omega_a=omega_a,
                  g=g, theta=theta, alpha=alpha, dim=dim, samples=samples,
                  t_max=t_max, c0=c0, c1=c1, device=device, out=out)


def _read_device(r):
    c_j = r.take("device.c_j", _float, required=True)
    c_g = r.take("device.c_g", _float, required=True)
    l = r.take("device.l", _float, required=True)
    e_j0 = r.take("device.e_j0_kelvin", _float, required=True)
    v_given = r.either("device.n_g", "device.v_g")
    n_g = r.take("device.n_g", _float)
    v_g = r.take("device.v_g", _float)
    phi_x = r.take("device.phi_x", _float)
    convention = r.take("device.convention", _choice(CAP_CONVENTIONS))
    for name, val in (("device.c_j", c_j), ("device.c_g", c_g),
                      ("device.l", l)):
        if val is not None and val <= 0:
            r.problems.append("%s must be positive" % name)
    if e_j0 is not None and e_j0 < 0:
        r.problems.append("device.e_j0_kelvin must be nonnegative")
    if None in (c_j, c_g, l, e_j0):
        return None
    device = _given(DeviceConfig, c_j=c_j, c_g=c_g, l=l, e_j0_kelvin=e_j0,
                    n_g=n_g, v_g=v_g, phi_x=phi_x, convention=convention)
    # a given v_g stands in for n_g, so n_g takes no default
    return replace(device, n_g=None) if v_given else device


# ---------------------------------------------------------------------------
# canonical emission (round-trip: parse(canonical(parse(t))) == parse(t))

def _set_fields(record, section=None):
    """(section, field, value) of each set field (not None, not an empty
    alpha), in declaration order; a nested record is walked in place under
    its field's name as the section."""
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            yield from _set_fields(value, f.name)
        elif value is not None and value != ():
            yield section or _SECTION_OF.get(f.name, "model"), f, value


def canonical_config(cfg: RunConfig):
    """Resolved configuration as canonical config text: the set fields of
    `RunConfig`, and of its `DeviceConfig` in its place, in the records'
    field order, each under its section; floats at 17 significant digits,
    alpha comma-joined."""
    from .emit import format_float   # deferred: emit imports nothing of ours
    lines, current = [], ""
    for section, f, value in _set_fields(cfg):
        if section != current:
            lines.append("[%s]" % section)
            current = section
        if f.type is float:
            value = format_float(value)
        elif f.type is tuple:
            value = ", ".join(format_float(a) for a in value)
        lines.append("%s = %s" % (f.name, value))
    return "\n".join(lines) + "\n"
