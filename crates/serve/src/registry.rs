//! Content-hash-keyed design cache backing the wire `register` op.
//!
//! A `register` request names a benchmark plus generator/placer/STA
//! parameters; the server synthesizes, places and times the circuit,
//! lowers it through `DesignGraph::try_from_flow`, and levelizes a
//! `PropPlan` — all of which dwarf the per-session forward pass. The
//! registry keys that build by an FNV-1a hash over every parameter that
//! affects the result (everything in the spec except the session name),
//! so re-registration and duplicate designs are cache hits: the graph,
//! placement and plan are reused and only the session forward runs.
//!
//! Cached graphs are handed out via [`CachedDesign::instantiate`], which
//! deep-clones the two tensors `apply_moves` mutates — sessions built
//! from the same cache entry can never alias each other's ECO edits.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use tp_data::DesignGraph;
use tp_gen::{generate, BenchmarkSpec, GeneratorConfig};
use tp_gnn::checkpoint::fnv1a64;
use tp_gnn::PropPlan;
use tp_liberty::Library;
use tp_place::{place_circuit, Placement, PlacementConfig};
use tp_sta::flow::run_full_flow;
use tp_sta::StaConfig;

use crate::protocol::RegisterSpec;

/// One cached build: lowered graph, placement, and levelized plan.
#[derive(Debug)]
pub struct CachedDesign {
    /// The validated design graph (treat as immutable; see
    /// [`CachedDesign::instantiate`]).
    pub design: DesignGraph,
    /// The placement the graph's features were lowered from.
    pub placement: Placement,
    /// The levelized propagation schedule.
    pub plan: PropPlan,
}

impl CachedDesign {
    /// Fresh (graph, placement, plan) for one session. The graph's
    /// ECO-mutable tensors get their own storage so concurrent sessions
    /// sharing this cache entry stay independent.
    pub fn instantiate(&self) -> (DesignGraph, Placement, PropPlan) {
        (
            self.design.deep_clone(),
            self.placement.clone(),
            self.plan.clone(),
        )
    }
}

/// The content hash a [`RegisterSpec`] is cached under: FNV-1a over a
/// canonical byte encoding of every build-affecting field. The session
/// `name` is deliberately excluded — registering the same parameters
/// under two names shares one build.
pub fn content_hash(spec: &RegisterSpec) -> u64 {
    let mut bytes = Vec::with_capacity(spec.design.len() + 40);
    bytes.extend_from_slice(&(spec.design.len() as u64).to_le_bytes());
    bytes.extend_from_slice(spec.design.as_bytes());
    bytes.extend_from_slice(&spec.scale.to_bits().to_le_bytes());
    bytes.extend_from_slice(&spec.seed.to_le_bytes());
    bytes.extend_from_slice(&spec.utilization.to_bits().to_le_bytes());
    bytes.extend_from_slice(&spec.clock_period_ns.to_bits().to_le_bytes());
    match spec.depth {
        None => bytes.push(0),
        Some(d) => {
            bytes.push(1);
            bytes.extend_from_slice(&(d as u64).to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// The server-side design store.
#[derive(Debug)]
pub struct DesignRegistry {
    library: Library,
    cache: Mutex<BTreeMap<u64, Arc<CachedDesign>>>,
}

impl DesignRegistry {
    /// Builds the registry around one synthetic library (seeded so the
    /// server and an in-process client can agree on the cell set).
    pub fn new(lib_seed: u64) -> DesignRegistry {
        DesignRegistry {
            library: Library::synthetic_sky130(lib_seed),
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of distinct cached builds.
    pub fn len(&self) -> usize {
        self.cache.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches (or builds and caches) the design for `spec`. Returns the
    /// cache entry, its content hash, and whether this was a hit.
    ///
    /// # Errors
    ///
    /// A human-readable message when the benchmark name is unknown or the
    /// lowered design fails `try_from_flow` validation — the caller turns
    /// it into a `bad_request` reply.
    pub fn get_or_build(
        &self,
        spec: &RegisterSpec,
    ) -> Result<(Arc<CachedDesign>, u64, bool), String> {
        let hash = content_hash(spec);
        if let Some(hit) = self
            .cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&hash)
            .cloned()
        {
            tp_obs::metrics::count("serve.design_cache_hits", 1);
            return Ok((hit, hash, true));
        }
        // Build outside the lock: synthesis + STA dominate and must not
        // serialize unrelated registrations. Two racing misses both build
        // (deterministically, to identical bits); the first insert wins.
        let built = Arc::new(self.build(spec)?);
        let entry = Arc::clone(
            self.cache
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .entry(hash)
                .or_insert(built),
        );
        tp_obs::metrics::count("serve.design_cache_misses", 1);
        Ok((entry, hash, false))
    }

    fn build(&self, spec: &RegisterSpec) -> Result<CachedDesign, String> {
        let bench = BenchmarkSpec::by_name(&spec.design)
            .ok_or_else(|| format!("unknown benchmark {:?}", spec.design))?;
        let gen_cfg = GeneratorConfig {
            scale: spec.scale,
            seed: spec.seed,
            depth: spec.depth,
        };
        let circuit = generate(bench, &self.library, &gen_cfg);
        let place_cfg = PlacementConfig {
            utilization: spec.utilization,
            ..PlacementConfig::default()
        };
        let placement = place_circuit(&circuit, &place_cfg, spec.seed);
        let sta_cfg = StaConfig::default().with_clock_period(spec.clock_period_ns);
        let flow = run_full_flow(&circuit, &placement, &self.library, &sta_cfg);
        let design = DesignGraph::try_from_flow(
            &spec.design,
            false,
            &circuit,
            &placement,
            &self.library,
            &flow,
            &sta_cfg,
        )
        .map_err(|e| format!("design failed validation: {e}"))?;
        let plan = PropPlan::build(&design);
        Ok(CachedDesign {
            design,
            placement,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> RegisterSpec {
        RegisterSpec {
            name: name.to_string(),
            design: "spm".to_string(),
            scale: 0.01,
            seed: 11,
            utilization: 0.7,
            clock_period_ns: 2.0,
            depth: Some(6),
        }
    }

    #[test]
    fn content_hash_ignores_name_and_keys_on_parameters() {
        let a = spec("a");
        let b = spec("b");
        assert_eq!(
            content_hash(&a),
            content_hash(&b),
            "name must not affect the hash"
        );
        for tweaked in [
            RegisterSpec {
                design: "usb".into(),
                ..a.clone()
            },
            RegisterSpec {
                scale: 0.02,
                ..a.clone()
            },
            RegisterSpec {
                seed: 12,
                ..a.clone()
            },
            RegisterSpec {
                utilization: 0.6,
                ..a.clone()
            },
            RegisterSpec {
                clock_period_ns: 1.5,
                ..a.clone()
            },
            RegisterSpec {
                depth: None,
                ..a.clone()
            },
            RegisterSpec {
                depth: Some(7),
                ..a.clone()
            },
        ] {
            assert_ne!(content_hash(&a), content_hash(&tweaked), "{tweaked:?}");
        }
    }

    #[test]
    fn duplicate_registration_is_a_cache_hit_sharing_one_build() {
        let registry = DesignRegistry::new(0);
        let (first, h1, hit1) = registry.get_or_build(&spec("a")).expect("valid spec");
        assert!(!hit1, "first build is a miss");
        let (second, h2, hit2) = registry.get_or_build(&spec("b")).expect("valid spec");
        assert!(hit2, "same parameters under another name must hit");
        assert_eq!(h1, h2);
        assert!(Arc::ptr_eq(&first, &second), "one shared build");
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn unknown_benchmark_is_rejected_without_caching() {
        let registry = DesignRegistry::new(0);
        let err = registry
            .get_or_build(&RegisterSpec {
                design: "not-a-benchmark".into(),
                ..spec("a")
            })
            .expect_err("unknown benchmark must fail");
        assert!(err.contains("unknown benchmark"), "{err}");
        assert!(registry.is_empty());
    }

    #[test]
    fn instantiated_graphs_do_not_alias_eco_writes() {
        let registry = DesignRegistry::new(0);
        let (cached, _, _) = registry.get_or_build(&spec("a")).expect("valid spec");
        let (mut g1, mut p1, _) = cached.instantiate();
        let (g2, _, _) = cached.instantiate();
        let before = g2.pin_features.to_vec();
        let die = *p1.die();
        g1.apply_moves(
            &mut p1,
            &[tp_data::PinMove {
                pin: 0,
                x: die.width * 0.9,
                y: die.height * 0.9,
            }],
        )
        .expect("valid move");
        assert_ne!(g1.pin_features.to_vec(), before, "the move must land in g1");
        assert_eq!(
            g2.pin_features.to_vec(),
            before,
            "g2 storage must be independent"
        );
        assert_eq!(
            cached.design.pin_features.to_vec(),
            before,
            "cache stays pristine"
        );
    }
}
