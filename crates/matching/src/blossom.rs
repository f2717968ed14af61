//! Maximum-weight matching in general graphs (the blossom algorithm).
//!
//! This is a faithful Rust port of the classical O(V³) formulation by
//! Galil ("Efficient algorithms for finding maximum matching in
//! graphs", ACM CSUR 1986 — the reference the paper cites) in the
//! widely used van Rantwijk arrangement (the same algorithm behind
//! NetworkX's `max_weight_matching`). All arithmetic is integral: with
//! integer edge weights the duals stay integral because all S-vertex
//! duals keep a common parity, so type-3 delta `slack/2` is exact.
//!
//! # Data layout
//!
//! Edges are read in place from the [`Graph`]. Edge `k` has endpoints
//! `2k` (its `u`) and `2k + 1` (its `v`); `endpoint[p]` is the vertex at
//! endpoint `p`. Each vertex's incident edges are one slice of a flat
//! `u32` array of (remote endpoint, remote vertex) pairs,
//! `neighbend[neighstart[v]..neighstart[v + 1]]`, in edge order.
//! Vertices are `0..V`; blossoms take ids `V..2V` from a pool, from the
//! top down, so every scan over blossoms starts at the lowest id taken
//! so far. Every per-vertex and per-blossom table is a flat vector of
//! `V` or `2V` entries.
//!
//! # Reused buffers
//!
//! A call sizes its tables once. Within a stage a buffer allocates only
//! when it outgrows every earlier use:
//!
//! * Labelling a single vertex S pushes it straight onto the queue; the
//!   leaves of a real blossom are walked with one scratch stack into
//!   one scratch list, both owned by the matcher.
//! * The queue scan reads a vertex's adjacency slice by index.
//! * A recycled blossom id keeps its child, endpoint and least-slack
//!   edge lists; they are cleared and refilled, not reallocated.
//! * `add_blossom` collects each neighbouring S-blossom's least-slack
//!   edge, with its slack, in a `2V` table that stays all-empty between
//!   calls: it notes the entries it fills, sorts that short list and
//!   resets only them.
//! * The dual delta is one pass over vertices and one over top-level
//!   blossoms, keeping each type's first minimum; the vertex duals are
//!   then updated without branching on the labels.
//!
//! # Tie-breaking
//!
//! On tied weights a maximum-weight matching is not unique, and which
//! one comes back is decided by these orders, all kept from the
//! original formulation:
//!
//! * the scan queue is LIFO, and a blossom's leaves are queued in
//!   depth-first order, last child first;
//! * blossom ids are popped from the end of the unused pool and pushed
//!   back on expansion, in the same order;
//! * every least-slack scan keeps the first index on equal slack;
//! * on equal delta the lower type wins: 1 < 2 < 3 < 4;
//! * a blossom's least-slack edge list is in ascending order of the
//!   S-blossom each edge leads to.
//!
//! `tests/matching_fixture.rs` pins the resulting `mate` vectors of
//! about 10⁴ seeded tie-heavy graphs and 200 embed-shaped eligible-pair
//! graphs, in both modes, against hashes in `tests/fixtures/mates.txt`.
//!
//! Every returned matching is validated with [`verify_matching`] in
//! debug builds; the test-suite additionally cross-checks optimality
//! against the exponential oracle in [`crate::brute`].

use crate::graph::{Edge, Graph};
use std::mem;

/// Computes a maximum-weight matching of `graph`.
///
/// Returns `mate` where `mate[v] = Some(w)` iff edge `(v, w)` is in the
/// matching. With `max_cardinality = true`, only maximum-cardinality
/// matchings are considered (the heaviest among them is returned).
///
/// Negative-weight edges are never selected when `max_cardinality` is
/// `false` (they cannot improve the objective).
///
/// Weights must lie within `±2^61`: that keeps every dual variable,
/// every slack `dual_i + dual_j − 2w` and every `2w` inside an i64.
/// `OptMatch`'s weights `T − rm` meet it because generation refuses a
/// modulo base above 2^61.
pub fn max_weight_matching(graph: &Graph, max_cardinality: bool) -> Vec<Option<usize>> {
    let mate = Matcher::new(graph, max_cardinality).run();
    debug_assert!(verify_matching(graph, &mate));
    mate
}

/// Edge indices of the matching returned by [`max_weight_matching`].
pub fn matching_edge_indices(graph: &Graph, mate: &[Option<usize>]) -> Vec<usize> {
    graph
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| mate.get(e.u).copied().flatten() == Some(e.v))
        .map(|(i, _)| i)
        .collect()
}

/// Validates symmetry and vertex-disjointness of a mate vector.
pub fn verify_matching(graph: &Graph, mate: &[Option<usize>]) -> bool {
    if mate.len() != graph.num_vertices() {
        return false;
    }
    for (v, &m) in mate.iter().enumerate() {
        if let Some(w) = m {
            if w >= mate.len() || mate[w] != Some(v) || w == v {
                return false;
            }
        }
    }
    true
}

const NONE: isize = -1;

/// Appends the vertices of blossom `b` to `out`, in the order a
/// depth-first walk that pops the last child first visits them.
fn push_leaves(
    blossomchilds: &[Vec<usize>],
    nvertex: usize,
    b: usize,
    stack: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    stack.clear();
    stack.push(b);
    while let Some(t) = stack.pop() {
        if t < nvertex {
            out.push(t);
        } else {
            stack.extend_from_slice(&blossomchilds[t]);
        }
    }
}

struct Matcher<'a> {
    edges: &'a [Edge],
    nvertex: usize,
    max_cardinality: bool,
    /// `endpoint[p]` = vertex at endpoint `p` (edge `p/2`, side `p%2`).
    endpoint: Vec<usize>,
    /// Remote endpoint and remote vertex of each vertex's incident
    /// edges, in edge order: vertex `v`'s are
    /// `neighbend[neighstart[v]..neighstart[v + 1]]`.
    neighbend: Vec<[u32; 2]>,
    neighstart: Vec<u32>,
    /// `mate[v]` = remote endpoint of v's matched edge, or -1.
    mate: Vec<isize>,
    /// 0 = free, 1 = S, 2 = T, 5 = breadcrumb, -1 = recycled blossom.
    label: Vec<i8>,
    /// Endpoint through which a labelled vertex/blossom got its label.
    labelend: Vec<isize>,
    /// Top-level blossom containing each vertex.
    inblossom: Vec<usize>,
    blossomparent: Vec<isize>,
    /// Sub-blossoms of each blossom, empty for a vertex.
    blossomchilds: Vec<Vec<usize>>,
    blossombase: Vec<isize>,
    blossomendps: Vec<Vec<usize>>,
    /// Least-slack edge to a different S-blossom, per vertex/blossom.
    bestedge: Vec<isize>,
    /// Least-slack edges of an S-blossom to each neighbouring
    /// S-blossom; meaningful only where `hasbestedges` is set.
    blossombestedges: Vec<Vec<usize>>,
    hasbestedges: Vec<bool>,
    unusedblossoms: Vec<usize>,
    /// The lowest blossom id ever taken from the pool. Ids are taken
    /// from the top down, so every id below it is unused and the scans
    /// over blossoms start here.
    lowblossom: usize,
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
    /// Scratch: the leaves of one blossom, and the walk that finds them.
    leaves: Vec<usize>,
    stack: Vec<usize>,
    /// Scratch: the blossoms `scan_blossom` marked.
    trail: Vec<usize>,
    /// Scratch for `add_blossom`: least-slack edge to each S-blossom
    /// with its slack, `NONE` between calls, and the entries filled in
    /// this call.
    bestedgeto: Vec<(isize, i64)>,
    touched: Vec<usize>,
}

impl<'a> Matcher<'a> {
    fn new(graph: &'a Graph, max_cardinality: bool) -> Self {
        let edges = graph.edges();
        let nvertex = graph.num_vertices();
        assert!(
            2 * edges.len() <= u32::MAX as usize,
            "too many edges for the matcher"
        );
        let maxweight = edges.iter().map(|e| e.weight).max().unwrap_or(0).max(0);
        let mut endpoint = Vec::with_capacity(2 * edges.len());
        let mut neighstart = vec![0u32; nvertex + 1];
        for e in edges {
            assert_ne!(e.u, e.v, "self-loop in matching input");
            assert!(e.u < nvertex && e.v < nvertex, "edge endpoint out of range");
            endpoint.push(e.u);
            endpoint.push(e.v);
            neighstart[e.u + 1] += 1;
            neighstart[e.v + 1] += 1;
        }
        for v in 0..nvertex {
            neighstart[v + 1] += neighstart[v];
        }
        let mut next = neighstart.clone();
        let mut neighbend = vec![[0u32; 2]; 2 * edges.len()];
        for (k, e) in edges.iter().enumerate() {
            for (x, p, y) in [(e.u, 2 * k + 1, e.v), (e.v, 2 * k, e.u)] {
                neighbend[next[x] as usize] = [p as u32, y as u32];
                next[x] += 1;
            }
        }
        let mut dualvar = vec![maxweight; nvertex];
        dualvar.extend(std::iter::repeat_n(0, nvertex));
        Matcher {
            edges,
            nvertex,
            max_cardinality,
            endpoint,
            neighbend,
            neighstart,
            mate: vec![NONE; nvertex],
            label: vec![0; 2 * nvertex],
            labelend: vec![NONE; 2 * nvertex],
            inblossom: (0..nvertex).collect(),
            blossomparent: vec![NONE; 2 * nvertex],
            blossomchilds: vec![Vec::new(); 2 * nvertex],
            blossombase: (0..nvertex as isize)
                .chain(std::iter::repeat_n(NONE, nvertex))
                .collect(),
            blossomendps: vec![Vec::new(); 2 * nvertex],
            bestedge: vec![NONE; 2 * nvertex],
            blossombestedges: vec![Vec::new(); 2 * nvertex],
            hasbestedges: vec![false; 2 * nvertex],
            unusedblossoms: (nvertex..2 * nvertex).collect(),
            lowblossom: 2 * nvertex,
            dualvar,
            allowedge: vec![false; edges.len()],
            queue: Vec::new(),
            leaves: Vec::new(),
            stack: Vec::new(),
            trail: Vec::new(),
            bestedgeto: vec![(NONE, 0); 2 * nvertex],
            touched: Vec::new(),
        }
    }

    fn slack(&self, k: usize) -> i64 {
        let e = &self.edges[k];
        self.dualvar[e.u] + self.dualvar[e.v] - 2 * e.weight
    }

    /// Fills `self.leaves` with the vertices of blossom `b`.
    fn collect_leaves(&mut self, b: usize) {
        self.leaves.clear();
        push_leaves(
            &self.blossomchilds,
            self.nvertex,
            b,
            &mut self.stack,
            &mut self.leaves,
        );
    }

    /// Labels vertex `w` (and its blossom) S (t=1) or T (t=2), having
    /// been reached through endpoint `p`.
    fn assign_label(&mut self, w: usize, t: i8, p: isize) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NONE;
        self.bestedge[b] = NONE;
        if t == 1 {
            if b < self.nvertex {
                self.queue.push(b);
            } else {
                push_leaves(
                    &self.blossomchilds,
                    self.nvertex,
                    b,
                    &mut self.stack,
                    &mut self.queue,
                );
            }
        } else {
            let base = self.blossombase[b] as usize;
            debug_assert!(self.mate[base] >= 0);
            let mp = self.mate[base];
            self.assign_label(self.endpoint[mp as usize], 1, mp ^ 1);
        }
    }

    /// Traces back from S-vertices `v` and `w` to find a common
    /// ancestor (new blossom base) or -1 (augmenting path found).
    fn scan_blossom(&mut self, v: usize, w: usize) -> isize {
        self.trail.clear();
        let mut base = NONE;
        let mut v = v as isize;
        let mut w = w as isize;
        while v != NONE {
            let mut b = self.inblossom[v as usize];
            if self.label[b] & 4 != 0 {
                base = self.blossombase[b];
                break;
            }
            debug_assert_eq!(self.label[b], 1);
            self.trail.push(b);
            self.label[b] = 5;
            debug_assert_eq!(self.labelend[b], self.mate[self.blossombase[b] as usize]);
            if self.labelend[b] == NONE {
                v = NONE;
            } else {
                v = self.endpoint[self.labelend[b] as usize] as isize;
                b = self.inblossom[v as usize];
                debug_assert_eq!(self.label[b], 2);
                debug_assert!(self.labelend[b] >= 0);
                v = self.endpoint[self.labelend[b] as usize] as isize;
            }
            if w != NONE {
                mem::swap(&mut v, &mut w);
            }
        }
        for &b in &self.trail {
            self.label[b] = 1;
        }
        base
    }

    /// Constructs a new blossom with the given base, through edge `k`
    /// which connects two S-vertices in different blossoms.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let Edge {
            u: mut v, v: mut w, ..
        } = self.edges[k];
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.unusedblossoms.pop().expect("blossom pool exhausted");
        self.lowblossom = self.lowblossom.min(b);
        self.blossombase[b] = base as isize;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b as isize;
        let mut path = mem::take(&mut self.blossomchilds[b]);
        let mut endps = mem::take(&mut self.blossomendps[b]);
        path.clear();
        endps.clear();
        // Trace back from v to base.
        while bv != bb {
            self.blossomparent[bv] = b as isize;
            path.push(bv);
            endps.push(self.labelend[bv] as usize);
            debug_assert!(
                self.label[bv] == 2
                    || (self.label[bv] == 1
                        && self.labelend[bv] == self.mate[self.blossombase[bv] as usize])
            );
            debug_assert!(self.labelend[bv] >= 0);
            v = self.endpoint[self.labelend[bv] as usize];
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k);
        // Trace back from w to base.
        while bw != bb {
            self.blossomparent[bw] = b as isize;
            path.push(bw);
            endps.push((self.labelend[bw] as usize) ^ 1);
            debug_assert!(
                self.label[bw] == 2
                    || (self.label[bw] == 1
                        && self.labelend[bw] == self.mate[self.blossombase[bw] as usize])
            );
            debug_assert!(self.labelend[bw] >= 0);
            w = self.endpoint[self.labelend[bw] as usize];
            bw = self.inblossom[w];
        }
        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dualvar[b] = 0;
        // Relabel contained vertices.
        for &c in &path {
            self.collect_leaves(c);
            for &leaf in &self.leaves {
                if self.label[self.inblossom[leaf]] == 2 {
                    self.queue.push(leaf);
                }
                self.inblossom[leaf] = b;
            }
        }
        // Compute the blossom's least-slack edges to other S-blossoms:
        // from a child's own list where it has one, else from every
        // edge of the child's vertices.
        for &bv in &path {
            if self.hasbestedges[bv] {
                let list = mem::take(&mut self.blossombestedges[bv]);
                for &k2 in &list {
                    let e = &self.edges[k2];
                    let j = if self.inblossom[e.v] == b { e.u } else { e.v };
                    self.offer_bestedgeto(b, k2, j);
                }
                self.blossombestedges[bv] = list;
                self.hasbestedges[bv] = false;
            } else {
                self.collect_leaves(bv);
                let leaves = mem::take(&mut self.leaves);
                for &lv in &leaves {
                    let nb = self.neighstart[lv] as usize..self.neighstart[lv + 1] as usize;
                    for i in nb {
                        let [p, w] = self.neighbend[i];
                        self.offer_bestedgeto(b, p as usize / 2, w as usize);
                    }
                }
                self.leaves = leaves;
            }
            self.bestedge[bv] = NONE;
        }
        self.blossomchilds[b] = path;
        self.blossomendps[b] = endps;
        // Ascending target-blossom order, as a scan of the whole table.
        self.touched.sort_unstable();
        let mut blist = mem::take(&mut self.blossombestedges[b]);
        blist.clear();
        self.bestedge[b] = NONE;
        let mut bestslack = 0;
        for &bj in &self.touched {
            let (k2, kslack) = mem::replace(&mut self.bestedgeto[bj], (NONE, 0));
            blist.push(k2 as usize);
            if self.bestedge[b] == NONE || kslack < bestslack {
                self.bestedge[b] = k2;
                bestslack = kslack;
            }
        }
        self.touched.clear();
        self.blossombestedges[b] = blist;
        self.hasbestedges[b] = true;
    }

    /// Records edge `k2` from new blossom `b` to vertex `j` as `b`'s
    /// least-slack edge to the S-blossom containing `j`, unless an
    /// earlier edge has no more slack.
    fn offer_bestedgeto(&mut self, b: usize, k2: usize, j: usize) {
        let bj = self.inblossom[j];
        if bj == b || self.label[bj] != 1 {
            return;
        }
        let kslack = self.slack(k2);
        let (best, bestslack) = self.bestedgeto[bj];
        if best == NONE {
            self.touched.push(bj);
        } else if kslack >= bestslack {
            return;
        }
        self.bestedgeto[bj] = (k2 as isize, kslack);
    }

    /// Expands blossom `b`, turning its children into top-level
    /// blossoms. During a stage (`endstage == false`) T-blossom
    /// sub-blossoms must be carefully relabelled.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        let childs = mem::take(&mut self.blossomchilds[b]);
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                self.collect_leaves(s);
                for &leaf in &self.leaves {
                    self.inblossom[leaf] = s;
                }
            }
        }
        self.blossomchilds[b] = childs;
        if !endstage && self.label[b] == 2 {
            debug_assert!(self.labelend[b] >= 0);
            let entrychild = self.inblossom[self.endpoint[(self.labelend[b] as usize) ^ 1]];
            let len = self.blossomchilds[b].len() as isize;
            let mut j = self.blossomchilds[b]
                .iter()
                .position(|&c| c == entrychild)
                .expect("entry child must be a direct child") as isize;
            let (jstep, endptrick): (isize, usize) = if j & 1 != 0 {
                j -= len;
                (1, 0)
            } else {
                (-1, 1)
            };
            let endps_len = self.blossomendps[b].len() as isize;
            let idx =
                move |j: isize| -> usize { (((j % endps_len) + endps_len) % endps_len) as usize };
            let cidx = move |j: isize| -> usize { (((j % len) + len) % len) as usize };
            let mut p = self.labelend[b] as usize;
            while j != 0 {
                // Relabel the T-sub-blossom.
                self.label[self.endpoint[p ^ 1]] = 0;
                let q = self.blossomendps[b][idx(j - endptrick as isize)] ^ endptrick ^ 1;
                self.label[self.endpoint[q]] = 0;
                self.assign_label(self.endpoint[p ^ 1], 2, p as isize);
                // Step to the next S-sub-blossom; its forward endpoint.
                self.allowedge[self.blossomendps[b][idx(j - endptrick as isize)] / 2] = true;
                j += jstep;
                p = self.blossomendps[b][idx(j - endptrick as isize)] ^ endptrick;
                // Step to the next T-sub-blossom.
                self.allowedge[p / 2] = true;
                j += jstep;
            }
            // Relabel the base T-sub-blossom without stepping to its mate.
            let bv = self.blossomchilds[b][cidx(j)];
            let ep = self.endpoint[p ^ 1];
            self.label[ep] = 2;
            self.label[bv] = 2;
            self.labelend[ep] = p as isize;
            self.labelend[bv] = p as isize;
            self.bestedge[bv] = NONE;
            // Continue along the blossom until we get back to entrychild.
            j += jstep;
            while self.blossomchilds[b][cidx(j)] != entrychild {
                let bv = self.blossomchilds[b][cidx(j)];
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                self.collect_leaves(bv);
                let labelled = self.leaves.iter().copied().find(|&v| self.label[v] != 0);
                if let Some(vlab) = labelled {
                    debug_assert_eq!(self.label[vlab], 2);
                    debug_assert_eq!(self.inblossom[vlab], bv);
                    self.label[vlab] = 0;
                    let base_mate = self.mate[self.blossombase[bv] as usize];
                    self.label[self.endpoint[base_mate as usize]] = 0;
                    let le = self.labelend[vlab];
                    self.assign_label(vlab, 2, le);
                }
                j += jstep;
            }
        }
        // Recycle the blossom id.
        self.label[b] = -1;
        self.labelend[b] = NONE;
        self.blossomchilds[b].clear();
        self.blossomendps[b].clear();
        self.blossombase[b] = NONE;
        self.hasbestedges[b] = false;
        self.bestedge[b] = NONE;
        self.unusedblossoms.push(b);
    }
    /// Swaps matched/unmatched edges over an alternating path through
    /// blossom `b` between vertex `v` and the base vertex.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        // Bubble up to an immediate child of b.
        let mut t = v;
        while self.blossomparent[t] != b as isize {
            t = self.blossomparent[t] as usize;
        }
        if t >= self.nvertex {
            self.augment_blossom(t, v);
        }
        let len = self.blossomchilds[b].len() as isize;
        let i = self.blossomchilds[b]
            .iter()
            .position(|&c| c == t)
            .expect("t must be a child") as isize;
        let mut j = i;
        let (jstep, endptrick): (isize, usize) = if i & 1 != 0 {
            j -= len;
            (1, 0)
        } else {
            (-1, 1)
        };
        let cidx = move |j: isize| -> usize { (((j % len) + len) % len) as usize };
        let endps_len = self.blossomendps[b].len() as isize;
        let eidx =
            move |j: isize| -> usize { (((j % endps_len) + endps_len) % endps_len) as usize };
        while j != 0 {
            j += jstep;
            let t = self.blossomchilds[b][cidx(j)];
            let p = self.blossomendps[b][eidx(j - endptrick as isize)] ^ endptrick;
            if t >= self.nvertex {
                self.augment_blossom(t, self.endpoint[p]);
            }
            j += jstep;
            let t = self.blossomchilds[b][cidx(j)];
            if t >= self.nvertex {
                self.augment_blossom(t, self.endpoint[p ^ 1]);
            }
            self.mate[self.endpoint[p]] = (p ^ 1) as isize;
            self.mate[self.endpoint[p ^ 1]] = p as isize;
        }
        // Rotate children so the new base is first.
        let i = i as usize;
        self.blossomchilds[b].rotate_left(i);
        self.blossomendps[b].rotate_left(i);
        self.blossombase[b] = self.blossombase[self.blossomchilds[b][0]];
        debug_assert_eq!(self.blossombase[b], v as isize);
    }

    /// Augments the matching along the path through edge `k`.
    fn augment_matching(&mut self, k: usize) {
        let Edge { u: v, v: w, .. } = self.edges[k];
        for (mut s, mut p) in [(v, 2 * k + 1), (w, 2 * k)] {
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], 1);
                debug_assert_eq!(self.labelend[bs], self.mate[self.blossombase[bs] as usize]);
                if bs >= self.nvertex {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p as isize;
                if self.labelend[bs] == NONE {
                    break;
                }
                let t = self.endpoint[self.labelend[bs] as usize];
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert!(self.labelend[bt] >= 0);
                s = self.endpoint[self.labelend[bt] as usize];
                let j = self.endpoint[(self.labelend[bt] as usize) ^ 1];
                debug_assert_eq!(self.blossombase[bt], t as isize);
                if bt >= self.nvertex {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.labelend[bt];
                p = (self.labelend[bt] as usize) ^ 1;
            }
        }
    }

    /// The dual delta and its type, with the edge (types 2 and 3) or
    /// blossom (type 4) it concerns: the least of each type's first
    /// minimum, the lower type winning a tie.
    fn dual_delta(&self) -> (i32, i64, usize) {
        let nvertex = self.nvertex;
        let mut mindual = i64::MAX;
        let mut best2: Option<(i64, usize)> = None;
        let mut best3: Option<(i64, usize)> = None;
        let mut best4: Option<(i64, usize)> = None;
        // Vertices: the least vertex dual (type 1), the least-slack
        // edge from a free vertex to an S-blossom (type 2), and the
        // least-slack S-S edge of a top-level S-vertex (type 3).
        for v in 0..nvertex {
            mindual = mindual.min(self.dualvar[v]);
            let k = self.bestedge[v];
            if k == NONE {
                continue;
            }
            if self.label[self.inblossom[v]] == 0 {
                let d = self.slack(k as usize);
                if best2.is_none_or(|(m, _)| d < m) {
                    best2 = Some((d, k as usize));
                }
            } else if self.blossomparent[v] == NONE && self.label[v] == 1 {
                let kslack = self.slack(k as usize);
                debug_assert_eq!(kslack % 2, 0, "S-S slack must be even");
                if best3.is_none_or(|(m, _)| kslack / 2 < m) {
                    best3 = Some((kslack / 2, k as usize));
                }
            }
        }
        // Top-level blossoms: the least-slack S-S edge of an S-blossom
        // (type 3), and the least dual of a T-blossom (type 4).
        for b in self.lowblossom..2 * nvertex {
            if self.blossomparent[b] != NONE || self.blossombase[b] < 0 {
                continue;
            }
            match self.label[b] {
                1 if self.bestedge[b] != NONE => {
                    let k = self.bestedge[b] as usize;
                    let kslack = self.slack(k);
                    debug_assert_eq!(kslack % 2, 0, "S-S slack must be even");
                    if best3.is_none_or(|(m, _)| kslack / 2 < m) {
                        best3 = Some((kslack / 2, k));
                    }
                }
                2 if best4.is_none_or(|(m, _)| self.dualvar[b] < m) => {
                    best4 = Some((self.dualvar[b], b));
                }
                _ => {}
            }
        }
        let mut best = (!self.max_cardinality).then_some((1, mindual.max(0), 0));
        for (deltatype, candidate) in [(2, best2), (3, best3), (4, best4)] {
            if let Some((d, at)) = candidate {
                if best.is_none_or(|(_, delta, _)| d < delta) {
                    best = Some((deltatype, d, at));
                }
            }
        }
        // No further improvement possible (max-cardinality mode); make
        // the optimum verifiable.
        best.unwrap_or((1, mindual.max(0), 0))
    }

    fn run(mut self) -> Vec<Option<usize>> {
        let nvertex = self.nvertex;
        if nvertex == 0 || self.edges.is_empty() {
            return vec![None; nvertex];
        }
        for _ in 0..nvertex {
            // Start of a stage.
            self.label.fill(0);
            self.bestedge.fill(NONE);
            self.hasbestedges[self.lowblossom..].fill(false);
            self.allowedge.fill(false);
            self.queue.clear();
            for v in 0..nvertex {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }
            let mut augmented = false;
            loop {
                // Substage: scan the queue.
                'scan: while let Some(v) = self.queue.pop() {
                    debug_assert_eq!(self.label[self.inblossom[v]], 1);
                    let nb = self.neighstart[v] as usize..self.neighstart[v + 1] as usize;
                    for i in nb {
                        let [p, w] = self.neighbend[i];
                        let (p, w) = (p as usize, w as usize);
                        let k = p / 2;
                        if self.inblossom[v] == self.inblossom[w] {
                            continue;
                        }
                        let mut kslack = 0i64;
                        if !self.allowedge[k] {
                            kslack = self.slack(k);
                            if kslack <= 0 {
                                self.allowedge[k] = true;
                            }
                        }
                        if self.allowedge[k] {
                            if self.label[self.inblossom[w]] == 0 {
                                self.assign_label(w, 2, (p ^ 1) as isize);
                            } else if self.label[self.inblossom[w]] == 1 {
                                let base = self.scan_blossom(v, w);
                                if base >= 0 {
                                    self.add_blossom(base as usize, k);
                                } else {
                                    self.augment_matching(k);
                                    augmented = true;
                                    break 'scan;
                                }
                            } else if self.label[w] == 0 {
                                debug_assert_eq!(self.label[self.inblossom[w]], 2);
                                self.label[w] = 2;
                                self.labelend[w] = (p ^ 1) as isize;
                            }
                        } else if self.label[self.inblossom[w]] == 1 {
                            let b = self.inblossom[v];
                            if self.bestedge[b] == NONE
                                || kslack < self.slack(self.bestedge[b] as usize)
                            {
                                self.bestedge[b] = k as isize;
                            }
                        } else if self.label[w] == 0
                            && (self.bestedge[w] == NONE
                                || kslack < self.slack(self.bestedge[w] as usize))
                        {
                            self.bestedge[w] = k as isize;
                        }
                    }
                }
                if augmented {
                    break;
                }
                let (deltatype, delta, at) = self.dual_delta();
                // Update dual variables: S-vertices fall and T-vertices
                // rise by delta (a top-level label is 0, 1 or 2 here;
                // branch-free, as the labels follow no pattern).
                let step = |label: i8| delta * (i64::from(label == 2) - i64::from(label == 1));
                for (dual, &b) in self.dualvar[..nvertex].iter_mut().zip(&self.inblossom) {
                    *dual += step(self.label[b]);
                }
                for b in self.lowblossom..2 * nvertex {
                    if self.blossombase[b] >= 0 && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }
                // Take action.
                match deltatype {
                    1 => break,
                    2 => {
                        self.allowedge[at] = true;
                        let Edge { u: mut i, v: j, .. } = self.edges[at];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        self.allowedge[at] = true;
                        let i = self.edges[at].u;
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    4 => self.expand_blossom(at, false),
                    _ => unreachable!(),
                }
            }
            if !augmented {
                break;
            }
            // End of stage: expand all S-blossoms with zero dual.
            for b in self.lowblossom..2 * nvertex {
                if self.blossomparent[b] == NONE
                    && self.blossombase[b] >= 0
                    && self.label[b] == 1
                    && self.dualvar[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
        // Translate endpoints to vertices.
        (0..nvertex)
            .map(|v| {
                if self.mate[v] >= 0 {
                    Some(self.endpoint[self.mate[v] as usize])
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_max_weight;
    use crate::graph::Graph;
    use proptest::prelude::*;

    fn matched_weight(g: &Graph, mate: &[Option<usize>]) -> i64 {
        g.edges()
            .iter()
            .filter(|e| mate[e.u] == Some(e.v))
            .map(|e| e.weight)
            .sum()
    }

    fn cardinality(mate: &[Option<usize>]) -> usize {
        mate.iter().flatten().count() / 2
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(max_weight_matching(&g, false).is_empty());
        let g = Graph::new(3);
        assert_eq!(max_weight_matching(&g, false), vec![None, None, None]);
    }

    #[test]
    fn single_edge() {
        let g = Graph::from_edges([(0, 1, 5)]);
        let m = max_weight_matching(&g, false);
        assert_eq!(m, vec![Some(1), Some(0)]);
    }

    #[test]
    fn negative_edge_ignored_without_cardinality() {
        let g = Graph::from_edges([(0, 1, -5)]);
        let m = max_weight_matching(&g, false);
        assert_eq!(m, vec![None, None]);
        // …but selected when maximising cardinality.
        let m = max_weight_matching(&g, true);
        assert_eq!(m, vec![Some(1), Some(0)]);
    }

    #[test]
    fn path_three_vertices_prefers_heavy_edge() {
        // NetworkX doctest: (1,2,5),(2,3,11),(3,4,5) -> match (2,3).
        let g = Graph::from_edges([(0, 1, 5), (1, 2, 11), (2, 3, 5)]);
        let m = max_weight_matching(&g, false);
        assert_eq!(m[1], Some(2));
        assert_eq!(m[0], None);
        assert_eq!(m[3], None);
        // With max cardinality the two light edges win.
        let m = max_weight_matching(&g, true);
        assert_eq!(m[0], Some(1));
        assert_eq!(m[2], Some(3));
    }

    #[test]
    fn triangle_picks_heaviest_single_edge() {
        let g = Graph::from_edges([(0, 1, 3), (1, 2, 4), (0, 2, 5)]);
        let m = max_weight_matching(&g, false);
        assert_eq!(m[0], Some(2));
        assert_eq!(m[2], Some(0));
        assert_eq!(m[1], None);
    }

    // Regression tests drawn from van Rantwijk's test suite — these
    // exercise blossom creation, expansion, relabelling and nesting.
    #[test]
    fn s_blossom_and_use_for_augmentation() {
        // test_s_blossom (vertices shifted to 0-based)
        let g = Graph::from_edges([(0, 1, 8), (0, 2, 9), (1, 2, 10), (2, 3, 7)]);
        let m = max_weight_matching(&g, false);
        assert_eq!(m, vec![Some(1), Some(0), Some(3), Some(2)]);

        let g = Graph::from_edges([
            (0, 1, 8),
            (0, 2, 9),
            (1, 2, 10),
            (2, 3, 7),
            (0, 5, 5),
            (3, 4, 6),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );
    }

    #[test]
    fn create_s_blossom_relabel_as_t_and_use() {
        // test_s_t_blossom
        let g = Graph::from_edges([
            (0, 1, 9),
            (0, 2, 8),
            (1, 2, 10),
            (0, 3, 5),
            (3, 4, 4),
            (0, 5, 3),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );

        let g = Graph::from_edges([
            (0, 1, 9),
            (0, 2, 8),
            (1, 2, 10),
            (0, 3, 5),
            (3, 4, 3),
            (0, 5, 4),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );
    }

    #[test]
    fn nested_s_blossom_and_augment() {
        // test_nested_s_blossom: create nested S-blossom, use for augmentation.
        let g = Graph::from_edges([
            (0, 1, 9),
            (0, 2, 9),
            (1, 2, 10),
            (1, 3, 8),
            (2, 4, 8),
            (3, 4, 10),
            (4, 5, 6),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![Some(2), Some(3), Some(0), Some(1), Some(5), Some(4)]
        );
    }

    #[test]
    fn nested_s_blossom_relabel_and_expand() {
        // test_nested_s_blossom_relabel
        let g = Graph::from_edges([
            (0, 1, 10),
            (0, 6, 10),
            (1, 2, 12),
            (2, 3, 20),
            (2, 4, 20),
            (3, 4, 25),
            (4, 5, 10),
            (5, 6, 10),
            (6, 7, 8),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![
                Some(1),
                Some(0),
                Some(3),
                Some(2),
                Some(5),
                Some(4),
                Some(7),
                Some(6)
            ]
        );
    }

    #[test]
    fn nested_s_blossom_expand_recursively() {
        // test_nested_s_blossom_expand
        let g = Graph::from_edges([
            (0, 1, 8),
            (0, 2, 8),
            (1, 2, 10),
            (1, 3, 12),
            (2, 4, 12),
            (3, 4, 14),
            (3, 5, 12),
            (4, 6, 12),
            (5, 6, 14),
            (6, 7, 12),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![
                Some(1),
                Some(0),
                Some(4),
                Some(5),
                Some(2),
                Some(3),
                Some(7),
                Some(6)
            ]
        );
    }

    #[test]
    fn s_blossom_relabel_expand() {
        // test_s_blossom_relabel_expand
        let g = Graph::from_edges([
            (0, 1, 23),
            (0, 4, 22),
            (0, 5, 15),
            (1, 2, 25),
            (2, 3, 22),
            (3, 4, 25),
            (3, 7, 14),
            (4, 6, 13),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![
                Some(5),
                Some(2),
                Some(1),
                Some(7),
                Some(6),
                Some(0),
                Some(4),
                Some(3)
            ]
        );
    }

    #[test]
    fn t_blossom_relabel_expand_variants() {
        // test_nasty_blossom1/2 style graphs with augmenting through
        // expanded blossoms.
        let g = Graph::from_edges([
            (0, 1, 45),
            (0, 4, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 50),
            (0, 5, 30),
            (2, 8, 35),
            (3, 7, 35),
            (4, 6, 26),
            (8, 9, 5),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![
                Some(5),
                Some(2),
                Some(1),
                Some(7),
                Some(6),
                Some(0),
                Some(4),
                Some(3),
                Some(9),
                Some(8)
            ]
        );
    }

    #[test]
    fn nasty_blossom_least_slack() {
        // test_nasty_blossom_least_slack: create blossom, relabel as T,
        // expand such that a new least-slack S-to-free edge is produced.
        let g = Graph::from_edges([
            (0, 1, 45),
            (0, 4, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 50),
            (0, 5, 30),
            (2, 8, 35),
            (3, 7, 28),
            (4, 6, 26),
            (8, 9, 5),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![
                Some(5),
                Some(2),
                Some(1),
                Some(7),
                Some(6),
                Some(0),
                Some(4),
                Some(3),
                Some(9),
                Some(8)
            ]
        );
    }

    #[test]
    fn nasty_blossom_augmenting() {
        // test_nasty_blossom_augmenting: create nested blossom, relabel
        // as T in more than one way, expand outer blossom such that
        // inner blossom ends up on an augmenting path.
        let g = Graph::from_edges([
            (0, 1, 45),
            (0, 6, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 95),
            (3, 5, 94),
            (4, 5, 94),
            (5, 6, 50),
            (0, 7, 30),
            (2, 10, 35),
            (4, 8, 36),
            (6, 9, 26),
            (10, 11, 5),
        ]);
        let m = max_weight_matching(&g, false);
        assert_eq!(
            m,
            vec![
                Some(7),
                Some(2),
                Some(1),
                Some(5),
                Some(8),
                Some(3),
                Some(9),
                Some(0),
                Some(4),
                Some(6),
                Some(11),
                Some(10)
            ]
        );
    }

    #[test]
    fn matching_edge_indices_roundtrip() {
        let g = Graph::from_edges([(0, 1, 5), (1, 2, 11), (2, 3, 5)]);
        let m = max_weight_matching(&g, false);
        let idx = matching_edge_indices(&g, &m);
        assert_eq!(idx, vec![1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The blossom result must equal the brute-force optimum on
        /// small random graphs (the decisive correctness test).
        #[test]
        fn matches_brute_force(
            n in 2usize..9,
            edges in proptest::collection::vec((0usize..9, 0usize..9, 1i64..100), 0..16)
        ) {
            let mut g = Graph::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n, v % n);
                if u != v {
                    g.add_edge(u, v, w);
                }
            }
            let mate = max_weight_matching(&g, false);
            prop_assert!(verify_matching(&g, &mate));
            let got = matched_weight(&g, &mate);
            let best = brute_force_max_weight(&g);
            prop_assert_eq!(got, best, "blossom {} vs brute {}", got, best);
        }

        /// Max-cardinality mode must produce a maximum matching.
        #[test]
        fn max_cardinality_dominates(
            n in 2usize..9,
            edges in proptest::collection::vec((0usize..9, 0usize..9, 1i64..50), 0..14)
        ) {
            let mut g = Graph::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n, v % n);
                if u != v {
                    g.add_edge(u, v, w);
                }
            }
            let plain = max_weight_matching(&g, false);
            let maxcard = max_weight_matching(&g, true);
            prop_assert!(verify_matching(&g, &maxcard));
            prop_assert!(cardinality(&maxcard) >= cardinality(&plain));
            // With all-positive weights on a graph, max-weight IS
            // max-cardinality when weights are uniform-ish large; at
            // minimum the weight of maxcard must be <= plain's weight.
            prop_assert!(matched_weight(&g, &maxcard) <= matched_weight(&g, &plain)
                         || cardinality(&maxcard) > cardinality(&plain));
        }
    }
}
