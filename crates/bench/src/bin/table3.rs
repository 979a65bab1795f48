//! Regenerates **Table 3**: the graph dataset inventory, side by side
//! with the scaled twins this reproduction actually runs
//! (`simdx_graph::datasets`).

use simdx_bench::{load, print_table, GRAPH_ORDER, SEED};
use simdx_graph::stats;

fn main() {
    let header = [
        "Graph",
        "Abbrev",
        "Class",
        "Paper |V|",
        "Paper |E|",
        "Twin |V|",
        "Twin |E|",
        "Twin diam",
        "Gini",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect::<Vec<_>>();
    let mut rows = Vec::new();
    for abbrev in GRAPH_ORDER {
        let (spec, g) = load(abbrev);
        let diam = stats::estimate_diameter(g.out(), 2, SEED);
        let gini = stats::degree_gini(g.out());
        rows.push(vec![
            spec.name.to_string(),
            spec.abbrev.to_string(),
            format!("{:?}", spec.class),
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            diam.to_string(),
            format!("{gini:.2}"),
        ]);
    }
    print_table(
        "Table 3: graph datasets (paper scale vs 1/64 twins)",
        &header,
        &rows,
    );
}
