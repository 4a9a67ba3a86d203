//! Integration tests for the LOCAL executor with classic distributed
//! programs: BFS layering and flooding on standard topologies.

use local_runtime::{run_local, IdAssignment, Inbox, NodeContext, NodeProgram, Outbox};
use splitgraph::generators;

/// BFS layers from the node with ID 0: each node outputs its hop distance.
struct BfsLayers {
    dist: Option<usize>,
    announced: bool,
}

impl NodeProgram for BfsLayers {
    type Msg = usize;
    type Output = Option<usize>;

    fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<usize>) {
        if ctx.id == 0 {
            self.dist = Some(0);
            self.announced = true;
            out.broadcast(0);
        }
    }

    fn round(&mut self, _ctx: &NodeContext, inbox: Inbox<'_, usize>, out: &mut Outbox<usize>) {
        if self.dist.is_none() {
            if let Some(&d) = inbox.iter().map(|(_, d)| d).min() {
                self.dist = Some(d + 1);
            }
        }
        if let (Some(d), false) = (self.dist, self.announced) {
            self.announced = true;
            out.broadcast(d);
        }
    }

    fn is_done(&self) -> bool {
        // termination here is by round limit; nodes never self-terminate
        false
    }

    fn output(&self) -> Option<usize> {
        self.dist
    }
}

fn bfs_distances(g: &splitgraph::Graph, source: usize) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.node_count()];
    dist[source] = Some(0);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors(v) {
            if dist[w].is_none() {
                dist[w] = Some(dist[v].expect("visited") + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

#[test]
fn bfs_layers_match_reference_on_torus() {
    let g = generators::torus(6, 7).unwrap();
    let ids = IdAssignment::Sequential.assign(g.node_count());
    let run = run_local(&g, &ids, g.node_count(), |_| BfsLayers {
        dist: None,
        announced: false,
    });
    let reference = bfs_distances(&g, 0);
    assert_eq!(run.outputs, reference);
    // the run hits the round limit (programs never self-terminate), and
    // the eccentricity bounds how long information kept flowing
    assert!(!run.completed);
}

#[test]
fn bfs_layers_match_reference_on_hypercube() {
    let g = generators::hypercube(6);
    let ids = IdAssignment::Sequential.assign(g.node_count());
    let run = run_local(&g, &ids, 10, |_| BfsLayers {
        dist: None,
        announced: false,
    });
    let reference = bfs_distances(&g, 0);
    assert_eq!(run.outputs, reference);
    // hypercube dimension 6 has diameter 6 < 10 rounds
    assert_eq!(run.outputs.iter().filter_map(|d| *d).max(), Some(6));
}

#[test]
fn bfs_respects_disconnected_components() {
    let g = splitgraph::Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
    let ids = IdAssignment::Sequential.assign(5);
    let run = run_local(&g, &ids, 10, |_| BfsLayers {
        dist: None,
        announced: false,
    });
    assert_eq!(run.outputs[0], Some(0));
    assert_eq!(run.outputs[1], Some(1));
    assert_eq!(run.outputs[2], None, "other component is unreachable");
    assert_eq!(run.outputs[4], None);
}

#[test]
fn message_counts_scale_with_edges() {
    // every node announces once: total messages = Σ deg(announcers)
    let g = generators::cycle(50).unwrap();
    let ids = IdAssignment::Sequential.assign(50);
    let run = run_local(&g, &ids, 60, |_| BfsLayers {
        dist: None,
        announced: false,
    });
    // each of the 50 nodes broadcasts exactly once over degree 2
    assert_eq!(run.messages, 100);
}

#[test]
fn shuffled_ids_relabel_the_source() {
    let g = generators::cycle(9).unwrap();
    let ids = IdAssignment::Shuffled(3).assign(9);
    let source = ids.iter().position(|&x| x == 0).expect("id 0 exists");
    let run = run_local(&g, &ids, 20, |_| BfsLayers {
        dist: None,
        announced: false,
    });
    assert_eq!(run.outputs[source], Some(0));
    let reference = bfs_distances(&g, source);
    assert_eq!(run.outputs, reference);
}
