//! Configuration: one value, fixed before the fabric exists.
//!
//! Every knob of a job is a field of [`Config`]. [`Config::from_env`] is
//! the only reader of the `FOMPI_*` environment ([`Config::VARS`]);
//! [`crate::Fabric::with_config`] consumes the value and builds every
//! plane in its final state, so nothing on the fabric is reconfigured
//! after ranks can reach it — which is why it needs no lock, no setter
//! and no atomic for configuration. Precedence, lowest to highest:
//! [`Config::default`], the environment, the runtime's `Universe` builder
//! methods (plain field writes on the value it holds).
//!
//! One strictness policy: unset and empty mean the default; anything a
//! knob's grammar does not accept is a [`ConfigError`] naming the
//! variable, the value and what was expected — a typo must never
//! silently run clean, at another seed, or with tracing armed.

use crate::faults::FaultPlan;
use crate::mc::McGate;
use crate::notify::DEFAULT_NOTIFY_DEPTH;
use crate::rng::parse_u64;
use crate::shadow::RacecheckMode;
use crate::telemetry::DEFAULT_RING_CAP;
use std::sync::Arc;

/// Everything that can be chosen about a job before it starts.
#[derive(Clone)]
pub struct Config {
    /// Root seed (`FOMPI_SEED`, decimal or `0x`-hex): the one value every
    /// randomized component derives its streams from.
    pub seed: u64,
    /// Fault plan (`FOMPI_FAULTS`, grammar at [`FaultPlan::parse`]);
    /// [`FaultPlan::disabled`] injects nothing.
    pub faults: FaultPlan,
    /// Issue-side small-op batching for every endpoint (`FOMPI_BATCH`).
    pub batch: bool,
    /// Per-rank notification-ring depth in records (`FOMPI_NOTIFY_DEPTH`).
    pub notify_depth: usize,
    /// Race-checker mode (`FOMPI_RACECHECK`).
    pub racecheck: RacecheckMode,
    /// Metrics plane (`FOMPI_METRICS`).
    pub metrics: bool,
    /// Tracing telemetry: `Some(events retained per rank)` arms it and
    /// the flight recorder (`FOMPI_TELEMETRY`, capacity from
    /// `FOMPI_TELEMETRY_RING`).
    pub telemetry_ring: Option<usize>,
    /// Model-checker scheduling gate (see [`crate::mc`]); no environment
    /// form — only `fompi-mc` installs one.
    pub mc: Option<Arc<dyn McGate>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 1,
            faults: FaultPlan::disabled(),
            batch: false,
            notify_depth: DEFAULT_NOTIFY_DEPTH,
            racecheck: RacecheckMode::Off,
            metrics: false,
            telemetry_ring: None,
            mc: None,
        }
    }
}

/// Which diagnostic planes a job armed: a plain byte that
/// [`crate::Fabric::with_config`] computes once, from the planes it built
/// out of the [`Config`], and every [`crate::Endpoint`] copies — so an op
/// finds out with one load of rank-private memory and nothing can change
/// the answer after launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hooks(u8);

impl Hooks {
    /// A model-checker gate schedules every shared access ([`Config::mc`]).
    pub const MC: Hooks = Hooks(1 << 0);
    /// The fault plan injects something ([`Config::faults`]).
    pub const FAULTS: Hooks = Hooks(1 << 1);
    /// Events are recorded: telemetry aggregates (tracing or metrics) and,
    /// with tracing, the flight recorder ([`Config::telemetry_ring`]).
    pub const TRACE: Hooks = Hooks(1 << 2);
    /// The race checker records accesses ([`Config::racecheck`]).
    pub const RACECHECK: Hooks = Hooks(1 << 3);

    /// Is any plane of `planes` armed?
    #[inline]
    pub const fn has(self, planes: Hooks) -> bool {
        self.0 & planes.0 != 0
    }

    pub(crate) fn when(self, armed: bool) -> Hooks {
        if armed {
            self
        } else {
            Hooks::default()
        }
    }
}

impl std::ops::BitOr for Hooks {
    type Output = Hooks;
    fn bitor(self, other: Hooks) -> Hooks {
        Hooks(self.0 | other.0)
    }
}

/// What the runtime's `Universe::profile` accepts. The fabric has one
/// clock, virtual time; wall time is measured end to end, outside it, so
/// there is no profiler to arm and `Off` is the only mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// No wall-clock timing.
    #[default]
    Off,
}

/// A malformed `FOMPI_*` value: which variable, what it held, what its
/// grammar accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable, one of [`Config::VARS`].
    pub var: &'static str,
    /// The offending value, trimmed.
    pub value: String,
    /// What the knob's grammar wanted instead.
    pub expected: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {} `{}`: {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Every environment variable [`Config::from_env`] reads — the list
    /// anything that scrubs or documents the knobs goes by.
    pub const VARS: [&'static str; 8] = [
        "FOMPI_SEED",
        "FOMPI_FAULTS",
        "FOMPI_BATCH",
        "FOMPI_NOTIFY_DEPTH",
        "FOMPI_RACECHECK",
        "FOMPI_METRICS",
        "FOMPI_TELEMETRY",
        "FOMPI_TELEMETRY_RING",
    ];

    /// The configuration the process environment asks for.
    pub fn from_env() -> Result<Config, ConfigError> {
        Self::from_vars(|var| std::env::var(var).ok())
    }

    /// [`Config::from_env`] over an arbitrary variable source.
    pub fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<Config, ConfigError> {
        let d = Config::default();
        // A plan that names no seed of its own runs at the root seed.
        let seed = root_seed(&lookup, d.seed)?;
        let ring = knob(&lookup, "FOMPI_TELEMETRY_RING", DEFAULT_RING_CAP, count)?;
        Ok(Config {
            seed,
            faults: knob(&lookup, "FOMPI_FAULTS", d.faults, |v| {
                FaultPlan::parse(v, seed).map(|plan| plan.unwrap_or_else(FaultPlan::disabled))
            })?,
            batch: knob(&lookup, "FOMPI_BATCH", d.batch, switch)?,
            notify_depth: knob(&lookup, "FOMPI_NOTIFY_DEPTH", d.notify_depth, count)?,
            racecheck: knob(&lookup, "FOMPI_RACECHECK", d.racecheck, RacecheckMode::parse)?,
            metrics: knob(&lookup, "FOMPI_METRICS", d.metrics, switch)?,
            telemetry_ring: knob(&lookup, "FOMPI_TELEMETRY", false, switch)?.then_some(ring),
            mc: None,
        })
    }
}

/// One variable: `default` when unset or empty, else its trimmed value
/// through `parse`, whose error says what was expected.
fn knob<T, E: std::fmt::Display>(
    lookup: &impl Fn(&str) -> Option<String>,
    var: &'static str,
    default: T,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, ConfigError> {
    match lookup(var).as_deref().map(str::trim) {
        None | Some("") => Ok(default),
        Some(v) => parse(v).map_err(|expected| ConfigError {
            var,
            value: v.to_string(),
            expected: expected.to_string(),
        }),
    }
}

/// `FOMPI_SEED`, for [`Config::from_vars`] and for the binaries that bring
/// a default of their own ([`crate::rng::root_seed_from_env`]).
pub(crate) fn root_seed(
    lookup: &impl Fn(&str) -> Option<String>,
    default: u64,
) -> Result<u64, ConfigError> {
    knob(lookup, "FOMPI_SEED", default, |v| parse_u64(v).ok_or("expected a decimal or 0x-hex u64"))
}

/// The one boolean vocabulary.
fn switch(v: &str) -> Result<bool, &'static str> {
    match v {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err("expected 1|true|on or 0|false|off"),
    }
}

/// A capacity: an integer of at least one.
fn count(v: &str) -> Result<usize, &'static str> {
    v.parse().ok().filter(|&n| n >= 1).ok_or("expected an integer >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn with(vars: &[(&str, &str)]) -> Result<Config, ConfigError> {
        Config::from_vars(|name| vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
    }

    /// The field `var` sets, rendered so rows of different types compare
    /// in one table.
    fn show(c: &Config, var: &str) -> String {
        match var {
            "FOMPI_SEED" => format!("{:#x}", c.seed),
            "FOMPI_FAULTS" => format!("jitter {} seed {}", c.faults.jitter_frac, c.faults.seed),
            "FOMPI_BATCH" => c.batch.to_string(),
            "FOMPI_NOTIFY_DEPTH" => c.notify_depth.to_string(),
            "FOMPI_RACECHECK" => format!("{:?}", c.racecheck),
            "FOMPI_METRICS" => c.metrics.to_string(),
            "FOMPI_TELEMETRY" | "FOMPI_TELEMETRY_RING" => format!("{:?}", c.telemetry_ring),
            other => panic!("no field for {other}"),
        }
    }

    /// Every variable × {unset, empty, one valid value, one typo}.
    #[test]
    fn every_variable_defaults_parses_and_rejects() {
        // The ring capacity only shows while tracing is on.
        let fixed = |var| match var {
            "FOMPI_TELEMETRY_RING" => vec![("FOMPI_TELEMETRY", "1")],
            _ => vec![],
        };
        // (variable, default, valid value, its rendering, typo, what the
        // error must mention).
        let rows = [
            ("FOMPI_SEED", "0x1", "0x2A", "0x2a", "0xZZ", "0x-hex"),
            ("FOMPI_FAULTS", "jitter 0 seed 0", "heavy", "jitter 0.5 seed 1", "jittr=0.3", "key"),
            ("FOMPI_BATCH", "false", "on", "true", "yes", "1|true|on"),
            ("FOMPI_NOTIFY_DEPTH", "64", " 8 ", "8", "0", ">= 1"),
            ("FOMPI_RACECHECK", "Off", "panic", "Panic", "repotr", "report"),
            ("FOMPI_METRICS", "false", "true", "true", "yes", "0|false|off"),
            ("FOMPI_TELEMETRY", "None", "1", "Some(65536)", "of", "0|false|off"),
            ("FOMPI_TELEMETRY_RING", "Some(65536)", "4096", "Some(4096)", "4k", ">= 1"),
        ];
        assert_eq!(rows.map(|r| r.0), Config::VARS, "one row per variable, in VARS order");
        for (var, default, valid, shown, typo, mention) in rows {
            let set = |v| with(&[fixed(var), vec![(var, v)]].concat());
            assert_eq!(show(&with(&fixed(var)).unwrap(), var), default, "{var} unset");
            assert_eq!(show(&set("").unwrap(), var), default, "{var} empty");
            assert_eq!(show(&set("  ").unwrap(), var), default, "{var} blank");
            assert_eq!(show(&set(valid).unwrap(), var), shown, "{var}={valid}");
            let e = set(typo).err().unwrap_or_else(|| panic!("{var}={typo} must be rejected"));
            assert_eq!((e.var, e.value.as_str()), (var, typo));
            let text = e.to_string();
            assert!(text.starts_with(&format!("invalid {var} `{typo}`: ")), "{text}");
            assert!(text.contains(mention), "{text}");
        }
    }

    #[test]
    fn booleans_share_one_vocabulary() {
        let cases = [
            ("1", true),
            ("true", true),
            ("on", true),
            ("0", false),
            ("false", false),
            ("off", false),
        ];
        for (v, want) in cases {
            let c =
                with(&[("FOMPI_BATCH", v), ("FOMPI_METRICS", v), ("FOMPI_TELEMETRY", v)]).unwrap();
            assert_eq!((c.batch, c.metrics, c.telemetry_ring.is_some()), (want, want, want), "{v}");
        }
    }

    #[test]
    fn a_ring_capacity_is_checked_even_while_tracing_is_off() {
        let e = with(&[("FOMPI_TELEMETRY_RING", "4k")]).err().expect("4k is no capacity");
        assert_eq!(e.var, "FOMPI_TELEMETRY_RING");
        assert!(with(&[("FOMPI_TELEMETRY_RING", "16")]).unwrap().telemetry_ring.is_none());
    }

    #[test]
    fn fault_plan_seed_defaults_to_the_root_seed() {
        let c = with(&[("FOMPI_SEED", "42"), ("FOMPI_FAULTS", "light")]).unwrap();
        assert_eq!((c.seed, c.faults.seed), (42, 42));
        let c = with(&[("FOMPI_SEED", "42"), ("FOMPI_FAULTS", "heavy,seed=7")]).unwrap();
        assert_eq!((c.seed, c.faults.seed), (42, 7));
        assert!(!with(&[("FOMPI_FAULTS", "0")]).unwrap().faults.any());
    }

    #[test]
    fn vars_is_exactly_what_is_read() {
        let asked = RefCell::new(Vec::new());
        let lookup = |name: &str| {
            asked.borrow_mut().push(name.to_string());
            None
        };
        assert!(Config::from_vars(lookup).is_ok());
        let mut asked = asked.into_inner();
        asked.sort();
        let mut vars = Config::VARS.map(String::from);
        vars.sort();
        assert_eq!(asked, vars, "each variable is read once per Config");
    }
}
