//! Web-graph generator (UK-2002 twin).
//!
//! Hyperlink graphs combine power-law in-degrees with strong *community*
//! (host-level) locality: most links stay within a host, a minority cross
//! hosts. The locality matters to SIMD-X because it produces the medium
//! diameter (10–30, §6) and bursty frontier growth the evaluation
//! exercises. We partition vertices into contiguous "hosts" with sizes
//! drawn from a power law, wire dense preferential intra-host links, and
//! add a fraction of cross-host links to power-law-popular hosts.

use crate::EdgeList;
use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Web-graph generator configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Web {
    /// Vertex count.
    pub(crate) num_vertices: VertexId,
    /// Average directed edges per vertex.
    pub(crate) edge_factor: u32,
    /// Average host (community) size.
    pub(crate) mean_host_size: u32,
    /// Fraction of edges that leave their host.
    pub(crate) cross_host_fraction: f64,
}

impl Web {
    /// A UK-2002-class preset.
    #[cfg(test)]
    pub(crate) fn uk_style(num_vertices: VertexId, edge_factor: u32) -> Self {
        Self {
            num_vertices,
            edge_factor,
            mean_host_size: 64,
            cross_host_fraction: 0.15,
        }
    }

    /// Generates the edge list.
    pub(crate) fn generate(&self, seed: u64) -> EdgeList {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.num_vertices;

        // Carve `0..n` into contiguous hosts with exponential-ish sizes.
        let mut host_starts: Vec<VertexId> = vec![0];
        let mut at = 0u64;
        while at < n as u64 {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            let size = (-(u.ln()) * self.mean_host_size as f64).ceil().max(2.0) as u64;
            at = (at + size).min(n as u64);
            host_starts.push(at as VertexId);
        }
        let hosts = host_starts.len() - 1;

        let host_of =
            |v: VertexId| -> usize { host_starts.partition_point(|&s| s <= v).saturating_sub(1) };

        // Host popularity for cross links: Zipf over host index.
        let host_pop: Vec<f64> = (0..hosts).map(|h| 1.0 / (1.0 + h as f64)).collect();
        let total_pop: f64 = host_pop.iter().sum();
        let mut host_cum = Vec::with_capacity(hosts + 1);
        host_cum.push(0.0);
        for &p in &host_pop {
            let last = *host_cum.last().expect("non-empty");
            host_cum.push(last + p);
        }

        let m = n as u64 * self.edge_factor as u64;
        let mut el = EdgeList::new(n);
        for _ in 0..m {
            let s = rng.gen_range(0..n);
            let h = host_of(s);
            let (lo, hi) = (host_starts[h], host_starts[h + 1]);
            let d = if rng.gen::<f64>() < self.cross_host_fraction || hi - lo < 2 {
                // Cross-host: pick a popular host, then a low vertex inside
                // it (pages near the host root are more linked).
                let r = rng.gen::<f64>() * total_pop;
                let th = host_cum.partition_point(|&c| c <= r).saturating_sub(1);
                let (tlo, thi) = (host_starts[th], host_starts[th + 1]);
                let span = (thi - tlo).max(1);
                let off = (rng.gen::<f64>().powi(2) * span as f64) as u32;
                tlo + off.min(span - 1)
            } else {
                // Intra-host preferential: bias toward host root.
                let span = hi - lo;
                let off = (rng.gen::<f64>().powi(2) * span as f64) as u32;
                lo + off.min(span - 1)
            };
            if s != d {
                el.push(s, d);
            }
        }
        el.dedup();
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    #[test]
    fn deterministic() {
        let g = Web::uk_style(2000, 8);
        assert_eq!(g.generate(4), g.generate(4));
    }

    #[test]
    fn in_degree_is_skewed() {
        let el = Web::uk_style(4000, 12).generate(8);
        let in_csr = Csr::from_edge_list(&el).transpose();
        let max = in_csr.max_degree() as f64;
        let avg = in_csr.num_edges() as f64 / in_csr.num_vertices() as f64;
        assert!(max > avg * 8.0, "web in-degrees skew: max={max} avg={avg}");
    }

    #[test]
    fn most_edges_stay_local() {
        let cfg = Web::uk_style(4000, 8);
        let el = cfg.generate(2);
        let local = el
            .edges()
            .iter()
            .filter(|&&(s, d)| (s as i64 - d as i64).unsigned_abs() < 4 * cfg.mean_host_size as u64)
            .count();
        assert!(
            local * 2 > el.num_edges(),
            "expected majority-local links: {local}/{}",
            el.num_edges()
        );
    }
}
