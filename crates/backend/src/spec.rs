//! Declarative backend selection: parse `cpu:8` / `gpusim:tesla-c2050:4`
//! strings into [`BackendSpec`] values and build [`SolveBackend`] objects.

use crate::backends::{Cpu, SolveBackend};
use crate::cluster::GpuSimBackend;
use crate::strategy::KernelStrategy;
use gpusim::DeviceSpec;
use symtensor::Scalar;

/// Error from parsing a backend spec or kernel-strategy token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError(pub String);

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BackendError {}

impl From<gpusim::GpuError> for BackendError {
    fn from(e: gpusim::GpuError) -> Self {
        BackendError(e.to_string())
    }
}

impl From<symtensor::CombinatoricsOverflow> for BackendError {
    fn from(e: symtensor::CombinatoricsOverflow) -> Self {
        BackendError(e.to_string())
    }
}

impl From<kernelgen::KernelError> for BackendError {
    fn from(e: kernelgen::KernelError) -> Self {
        BackendError(e.to_string())
    }
}

/// The GPU models the simulator knows how to profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Tesla C2050 (Fermi) — the paper's primary device.
    TeslaC2050,
    /// Tesla C1060 (GT200) — the paper's previous-generation comparison.
    TeslaC1060,
    /// GeForce GTX 580 (GF110) — consumer Fermi, higher clocks.
    Gtx580,
}

impl DeviceKind {
    /// Every known device model.
    pub const ALL: [DeviceKind; 3] = [
        DeviceKind::TeslaC2050,
        DeviceKind::TeslaC1060,
        DeviceKind::Gtx580,
    ];

    /// Canonical spec-string slug (`tesla-c2050`, `tesla-c1060`, `gtx-580`).
    pub fn name(&self) -> &'static str {
        match self {
            DeviceKind::TeslaC2050 => "tesla-c2050",
            DeviceKind::TeslaC1060 => "tesla-c1060",
            DeviceKind::Gtx580 => "gtx-580",
        }
    }

    /// The full simulator device model.
    pub fn spec(&self) -> DeviceSpec {
        match self {
            DeviceKind::TeslaC2050 => DeviceSpec::tesla_c2050(),
            DeviceKind::TeslaC1060 => DeviceSpec::tesla_c1060(),
            DeviceKind::Gtx580 => DeviceSpec::gtx_580(),
        }
    }

    /// Parse a device slug; accepts short aliases (`c2050`, `gtx580`).
    pub fn parse(s: &str) -> Result<Self, BackendError> {
        match s {
            "tesla-c2050" | "c2050" => Ok(DeviceKind::TeslaC2050),
            "tesla-c1060" | "c1060" => Ok(DeviceKind::TeslaC1060),
            "gtx-580" | "gtx580" => Ok(DeviceKind::Gtx580),
            other => Err(BackendError(format!(
                "unknown device {other:?}: expected one of tesla-c2050, tesla-c1060, gtx-580"
            ))),
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Map a `DeviceSpec` marketing name back to its spec-string slug.
pub(crate) fn device_slug(name: &str) -> String {
    for kind in DeviceKind::ALL {
        if kind.spec().name == name {
            return kind.name().to_string();
        }
    }
    name.split(" (")
        .next()
        .unwrap_or(name)
        .to_lowercase()
        .replace(' ', "-")
}

/// A parsed backend selection, one of:
///
/// | spec string            | meaning                                   |
/// |------------------------|-------------------------------------------|
/// | `cpu`                  | sequential, one core                      |
/// | `cpu:8`                | rayon pool with 8 workers                 |
/// | `cpu:all`, `cpu:0`     | the global rayon pool (all cores)         |
/// | `gpusim`               | one simulated Tesla C2050                 |
/// | `gpusim:gtx-580`       | one simulated device of the named model   |
/// | `gpusim:4`             | four simulated Tesla C2050s               |
/// | `gpusim:tesla-c2050:4` | four simulated devices of the named model |
/// | `pipelined`            | one C2050, double-buffered streams        |
/// | `pipelined:gtx-580:2`  | two named devices, double-buffered        |
/// | `cluster`              | 2 hosts x 2 C2050s, QDR InfiniBand NICs   |
/// | `cluster:4`            | 4 hosts x 2 C2050s                        |
/// | `cluster:4:2`          | 4 hosts x 2 C2050s                        |
/// | `cluster:4:2:3`        | same, 3 streams per device                |
/// | `cluster:gtx-580:1:4`  | one host with 4 named devices             |
///
/// `cpu` builds the [`Cpu`] backend. Every other spelling builds the one
/// simulated-GPU backend, [`GpuSimBackend`], over a topology:
///
/// | spelling                   | hosts | devices | streams | chunks | link      |
/// |----------------------------|-------|---------|---------|--------|-----------|
/// | `gpusim[:device]`          | 1     | 1       | 1       | none   | untimed   |
/// | `gpusim[:device]:N`, N ≥ 2 | 1     | N       | 1       | none   | PCIe 2.0  |
/// | `pipelined[:device][:N]`   | 1     | N       | 2       | 256    | PCIe 2.0  |
/// | `cluster:…:h:d:1`          | h     | d       | 1       | none   | PCIe + NIC|
/// | `cluster:…:h:d:s`, s ≥ 2   | h     | d       | s       | 256    | PCIe + NIC|
///
/// The one-device `gpusim` link is untimed so its modeled seconds are the
/// kernel estimate alone (the paper's Table III convention). The batch is
/// cut into one contiguous arena slice per host, each non-root shard pays
/// a modeled NIC round trip, and each host splits its shard over its
/// devices; with chunks, each device's share is dealt round-robin over
/// its streams so uploads overlap kernels. `cluster:1:N` is therefore the
/// same backend as `gpusim:N`, and `cluster:1:N:2` as `pipelined:N`.
///
/// `Display` renders the canonical minimal form, so specs round-trip
/// through parse → `Display` → parse at the value level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// CPU execution: `threads == 1` is strictly sequential, `0` uses the
    /// global rayon pool, `k > 1` builds a dedicated `k`-worker pool.
    Cpu {
        /// Worker threads (1 = sequential, 0 = all cores).
        threads: usize,
    },
    /// Simulated-GPU execution on `devices` copies of `device`.
    GpuSim {
        /// The device model.
        device: DeviceKind,
        /// How many devices share the batch (≥ 1).
        devices: usize,
    },
    /// Stream-pipelined simulated-GPU execution on `devices` copies of
    /// `device` (double-buffered chunks; transfers overlap compute).
    Pipelined {
        /// The device model.
        device: DeviceKind,
        /// How many devices share the batch (≥ 1).
        devices: usize,
    },
    /// Cluster-sharded execution: `hosts` hosts, each with `devices`
    /// copies of `device` behind its own PCIe link, joined by modeled
    /// QDR-InfiniBand NICs. `streams > 1` pipelines each host's shard.
    Cluster {
        /// The device model installed in every host.
        device: DeviceKind,
        /// How many hosts share the batch (≥ 1; host 0 is the root).
        hosts: usize,
        /// Devices per host (≥ 1).
        devices: usize,
        /// Streams per device (≥ 1; 1 = plain synchronous launches).
        streams: usize,
    },
}

impl BackendSpec {
    /// Parse a spec string. See the type-level table for the grammar.
    pub fn parse(s: &str) -> Result<Self, BackendError> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        match head {
            "cpu" => {
                let threads = match parts.next() {
                    None => 1,
                    Some("all") => 0,
                    Some(t) => t.parse::<usize>().map_err(|_| {
                        BackendError(format!(
                            "invalid thread count {t:?} in backend spec {s:?}: expected a \
                             non-negative integer or \"all\""
                        ))
                    })?,
                };
                if let Some(extra) = parts.next() {
                    return Err(BackendError(format!(
                        "trailing {extra:?} in backend spec {s:?}: cpu takes at most one \
                         \":threads\" field"
                    )));
                }
                Ok(BackendSpec::Cpu { threads })
            }
            head @ ("gpusim" | "pipelined") => {
                let (device, devices) = match (parts.next(), parts.next()) {
                    (None, _) => (DeviceKind::TeslaC2050, 1),
                    (Some(field), None) => {
                        // One field: either a device slug or a count
                        // shorthand for that many default devices.
                        if field.chars().next().is_some_and(|c| c.is_ascii_digit())
                            || field.starts_with('-')
                        {
                            (DeviceKind::TeslaC2050, parse_device_count(field, s)?)
                        } else {
                            (DeviceKind::parse(field)?, 1)
                        }
                    }
                    (Some(dev), Some(count)) => {
                        (DeviceKind::parse(dev)?, parse_device_count(count, s)?)
                    }
                };
                if let Some(extra) = parts.next() {
                    return Err(BackendError(format!(
                        "trailing {extra:?} in backend spec {s:?}: {head} takes at most \
                         \":device:count\""
                    )));
                }
                if head == "pipelined" {
                    Ok(BackendSpec::Pipelined { device, devices })
                } else {
                    Ok(BackendSpec::GpuSim { device, devices })
                }
            }
            "cluster" => {
                let rest: Vec<&str> = parts.collect();
                let (device, counts) = match rest.first() {
                    Some(field)
                        if !field.chars().next().is_some_and(|c| c.is_ascii_digit())
                            && !field.starts_with('-') =>
                    {
                        (DeviceKind::parse(field)?, &rest[1..])
                    }
                    _ => (DeviceKind::TeslaC2050, &rest[..]),
                };
                if counts.len() > 3 {
                    return Err(BackendError(format!(
                        "trailing {:?} in backend spec {s:?}: cluster takes at most \
                         \":device:hosts:devices:streams\"",
                        counts[3]
                    )));
                }
                let hosts = match counts.first() {
                    Some(c) => parse_count(c, s, "host", "host")?,
                    None => 2,
                };
                let devices = match counts.get(1) {
                    Some(c) => parse_count(c, s, "device", "device per host")?,
                    None => 2,
                };
                let streams = match counts.get(2) {
                    Some(c) => parse_count(c, s, "stream", "stream per device")?,
                    None => 1,
                };
                Ok(BackendSpec::Cluster {
                    device,
                    hosts,
                    devices,
                    streams,
                })
            }
            other => Err(BackendError(format!(
                "unknown backend {other:?}: expected \"cpu[:threads]\", \
                 \"gpusim[:device][:count]\", \"pipelined[:device][:count]\" or \
                 \"cluster[:device][:hosts[:devices[:streams]]]\""
            ))),
        }
    }

    /// Build the backend this spec describes, with the given kernel
    /// strategy: a [`Cpu`] backend, or the [`GpuSimBackend`] over the
    /// topology in the type-level table.
    ///
    /// Errors on degenerate hand-built specs (zero devices, hosts or
    /// streams) — parsed specs always build, since the grammar rejects a
    /// zero count.
    pub fn build<S: Scalar>(
        &self,
        strategy: KernelStrategy,
    ) -> Result<Box<dyn SolveBackend<S>>, BackendError> {
        let (device, hosts, devices, streams, chunked) = match *self {
            BackendSpec::Cpu { threads } => return Ok(Box::new(Cpu::new(threads, strategy))),
            BackendSpec::GpuSim { device, devices: 1 } => {
                return Ok(Box::new(GpuSimBackend::new(device.spec(), strategy)))
            }
            BackendSpec::GpuSim { device, devices } => (device, 1, devices, 1, false),
            BackendSpec::Pipelined { device, devices } => (device, 1, devices, 2, true),
            BackendSpec::Cluster {
                device,
                hosts,
                devices,
                streams,
            } => (device, hosts, devices, streams, streams > 1),
        };
        let mut backend = GpuSimBackend::homogeneous(device.spec(), hosts, devices, strategy)?
            .with_streams(streams)?;
        if chunked {
            backend = backend.with_chunk_tensors(GpuSimBackend::DEFAULT_CHUNK_TENSORS)?;
        }
        Ok(Box::new(backend))
    }

    /// True for the simulated-GPU variants (which only support fixed
    /// shifts); lets callers validate the shift choice up front.
    pub fn is_gpu(&self) -> bool {
        matches!(
            self,
            BackendSpec::GpuSim { .. }
                | BackendSpec::Pipelined { .. }
                | BackendSpec::Cluster { .. }
        )
    }
}

fn parse_device_count(field: &str, whole: &str) -> Result<usize, BackendError> {
    parse_count(field, whole, "device", "device")
}

fn parse_count(field: &str, whole: &str, what: &str, need: &str) -> Result<usize, BackendError> {
    let count = field.parse::<usize>().map_err(|_| {
        BackendError(format!(
            "invalid {what} count {field:?} in backend spec {whole:?}: expected a positive \
             integer"
        ))
    })?;
    if count == 0 {
        return Err(BackendError(format!(
            "invalid {what} count 0 in backend spec {whole:?}: need at least one {need}"
        )));
    }
    Ok(count)
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BackendSpec::Cpu { threads: 1 } => f.write_str("cpu"),
            BackendSpec::Cpu { threads: 0 } => f.write_str("cpu:all"),
            BackendSpec::Cpu { threads } => write!(f, "cpu:{threads}"),
            BackendSpec::GpuSim {
                device: DeviceKind::TeslaC2050,
                devices: 1,
            } => f.write_str("gpusim"),
            BackendSpec::GpuSim { device, devices: 1 } => write!(f, "gpusim:{device}"),
            BackendSpec::GpuSim { device, devices } => write!(f, "gpusim:{device}:{devices}"),
            BackendSpec::Pipelined {
                device: DeviceKind::TeslaC2050,
                devices: 1,
            } => f.write_str("pipelined"),
            BackendSpec::Pipelined { device, devices: 1 } => write!(f, "pipelined:{device}"),
            BackendSpec::Pipelined { device, devices } => {
                write!(f, "pipelined:{device}:{devices}")
            }
            BackendSpec::Cluster {
                device,
                hosts,
                devices,
                streams,
            } => {
                f.write_str("cluster")?;
                if device != DeviceKind::TeslaC2050 {
                    write!(f, ":{device}")?;
                }
                if streams != 1 {
                    write!(f, ":{hosts}:{devices}:{streams}")
                } else if devices != 2 {
                    write!(f, ":{hosts}:{devices}")
                } else if hosts != 2 {
                    write!(f, ":{hosts}")
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl std::str::FromStr for BackendSpec {
    type Err = BackendError;

    fn from_str(s: &str) -> Result<Self, BackendError> {
        BackendSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        assert_eq!(
            BackendSpec::parse("cpu").unwrap(),
            BackendSpec::Cpu { threads: 1 }
        );
        assert_eq!(
            BackendSpec::parse("cpu:8").unwrap(),
            BackendSpec::Cpu { threads: 8 }
        );
        assert_eq!(
            BackendSpec::parse("cpu:all").unwrap(),
            BackendSpec::Cpu { threads: 0 }
        );
        assert_eq!(
            BackendSpec::parse("gpusim").unwrap(),
            BackendSpec::GpuSim {
                device: DeviceKind::TeslaC2050,
                devices: 1
            }
        );
        assert_eq!(
            BackendSpec::parse("gpusim:4").unwrap(),
            BackendSpec::GpuSim {
                device: DeviceKind::TeslaC2050,
                devices: 4
            }
        );
        assert_eq!(
            BackendSpec::parse("gpusim:gtx-580").unwrap(),
            BackendSpec::GpuSim {
                device: DeviceKind::Gtx580,
                devices: 1
            }
        );
        assert_eq!(
            BackendSpec::parse("gpusim:tesla-c1060:2").unwrap(),
            BackendSpec::GpuSim {
                device: DeviceKind::TeslaC1060,
                devices: 2
            }
        );
        assert_eq!(
            BackendSpec::parse("pipelined").unwrap(),
            BackendSpec::Pipelined {
                device: DeviceKind::TeslaC2050,
                devices: 1
            }
        );
        assert_eq!(
            BackendSpec::parse("pipelined:gtx-580:2").unwrap(),
            BackendSpec::Pipelined {
                device: DeviceKind::Gtx580,
                devices: 2
            }
        );
        assert_eq!(
            BackendSpec::parse("pipelined:4").unwrap(),
            BackendSpec::Pipelined {
                device: DeviceKind::TeslaC2050,
                devices: 4
            }
        );
        assert_eq!(
            BackendSpec::parse("cluster").unwrap(),
            BackendSpec::Cluster {
                device: DeviceKind::TeslaC2050,
                hosts: 2,
                devices: 2,
                streams: 1
            }
        );
        assert_eq!(
            BackendSpec::parse("cluster:4").unwrap(),
            BackendSpec::Cluster {
                device: DeviceKind::TeslaC2050,
                hosts: 4,
                devices: 2,
                streams: 1
            }
        );
        assert_eq!(
            BackendSpec::parse("cluster:1:4").unwrap(),
            BackendSpec::Cluster {
                device: DeviceKind::TeslaC2050,
                hosts: 1,
                devices: 4,
                streams: 1
            }
        );
        assert_eq!(
            BackendSpec::parse("cluster:gtx-580:4:2:3").unwrap(),
            BackendSpec::Cluster {
                device: DeviceKind::Gtx580,
                hosts: 4,
                devices: 2,
                streams: 3
            }
        );
    }

    #[test]
    fn rejects_malformed_specs_with_descriptive_errors() {
        for (spec, needle) in [
            ("cpu:", "invalid thread count"),
            ("cpu:x", "invalid thread count"),
            ("cpu:4:2", "trailing"),
            ("gpusim:-1", "invalid device count"),
            ("gpusim:0", "at least one device"),
            ("gpusim:tesla-c2050:0", "at least one device"),
            ("gpusim:quadro", "unknown device"),
            ("gpusim:tesla-c2050:2:2", "trailing"),
            ("pipelined:0", "at least one device"),
            ("pipelined:quadro", "unknown device"),
            ("pipelined:tesla-c2050:2:2", "trailing"),
            ("cluster:0", "at least one host"),
            ("cluster:2:0", "at least one device per host"),
            ("cluster:2:2:0", "at least one stream per device"),
            ("cluster:quadro", "unknown device"),
            ("cluster:x", "unknown device"),
            ("cluster:2:2:2:2", "trailing"),
            ("cluster:gtx-580:2:2:2:2", "trailing"),
            ("tpu", "unknown backend"),
            ("", "unknown backend"),
        ] {
            let err = BackendSpec::parse(spec).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{spec:?} -> {err}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn display_is_canonical_and_reparses() {
        for s in [
            "cpu",
            "cpu:8",
            "cpu:all",
            "gpusim",
            "gpusim:gtx-580",
            "gpusim:tesla-c2050:4",
            "pipelined",
            "pipelined:gtx-580",
            "pipelined:tesla-c2050:4",
            "cluster",
            "cluster:4",
            "cluster:1:4",
            "cluster:2:2:3",
            "cluster:gtx-580",
            "cluster:gtx-580:4:2:3",
        ] {
            let spec = BackendSpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(BackendSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        // Non-canonical inputs normalize.
        assert_eq!(BackendSpec::parse("cpu:1").unwrap().to_string(), "cpu");
        assert_eq!(BackendSpec::parse("cpu:0").unwrap().to_string(), "cpu:all");
        assert_eq!(
            BackendSpec::parse("gpusim:c2050:1").unwrap().to_string(),
            "gpusim"
        );
        assert_eq!(
            BackendSpec::parse("gpusim:gtx580").unwrap().to_string(),
            "gpusim:gtx-580"
        );
        assert_eq!(
            BackendSpec::parse("pipelined:c2050:1").unwrap().to_string(),
            "pipelined"
        );
        assert_eq!(
            BackendSpec::parse("cluster:c2050:2:2:1")
                .unwrap()
                .to_string(),
            "cluster"
        );
        assert_eq!(
            BackendSpec::parse("cluster:4:2").unwrap().to_string(),
            "cluster:4"
        );
    }

    #[test]
    fn device_slug_maps_marketing_names() {
        for kind in DeviceKind::ALL {
            assert_eq!(device_slug(kind.spec().name), kind.name());
        }
        assert_eq!(device_slug("Hypothetical X1 (Test)"), "hypothetical-x1");
    }
}
