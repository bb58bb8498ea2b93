//! Barnes-Hut N-body simulation over paged memory (paper §6.1: "Barnes",
//! from the Stanford SPLASH-2 suite, simulating the interaction of
//! 2,097,152 bodies, peak memory ≈ 516 MB).
//!
//! A real Barnes-Hut implementation — octree build, centre-of-mass pass,
//! θ-opening force traversal, leapfrog integration — with every body and
//! tree-node datum living in [`PagedVec`]s, so the physics pages through
//! the simulated VM like the original did through Linux 2.4. Memory use
//! grows as the octree builds, reproducing the incremental footprint the
//! paper observes.
//!
//! Uses the blocking access path (Barnes only appears single-instance,
//! Figure 8); compute is charged through a meter that advances the virtual
//! clock in ~50 µs slices so background page-out overlaps the computation.

use netmodel::Calibration;
use simcore::{Engine, MultiResource, SimDuration, SimRng};
use std::cell::Cell;
use vmsim::{AddressSpace, PagedVec, Vm};

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct BarnesParams {
    /// Number of bodies (paper: 2,097,152; scale down proportionally).
    pub bodies: usize,
    /// Time steps to simulate.
    pub iterations: usize,
    /// Opening criterion θ (SPLASH-2 default region: ~1.0).
    pub theta: f64,
    /// Integration step.
    pub dt: f64,
    /// RNG seed for the initial distribution.
    pub seed: u64,
}

impl Default for BarnesParams {
    fn default() -> BarnesParams {
        BarnesParams {
            bodies: 16384,
            iterations: 2,
            theta: 1.0,
            dt: 0.025,
            seed: 17,
        }
    }
}

/// Outcome counters (for verification and reporting).
#[derive(Clone, Debug)]
pub struct BarnesResult {
    /// Total body-body + body-cell interactions computed.
    pub interactions: u64,
    /// Octree nodes built in the final iteration.
    pub tree_nodes: usize,
    /// Total kinetic energy after the final step (sanity check: finite).
    pub kinetic_energy: f64,
}

/// Virtual-clock compute meter: accumulates modeled nanoseconds and
/// advances the engine in slices, reserving the node CPU so kernel work
/// contends.
pub struct ComputeMeter {
    engine: Engine,
    cpu: MultiResource,
    pending: Cell<u64>,
    slice_ns: u64,
}

impl ComputeMeter {
    /// A meter flushing every ~50 µs of accumulated compute.
    pub fn new(engine: Engine, cpu: MultiResource) -> ComputeMeter {
        ComputeMeter {
            engine,
            cpu,
            pending: Cell::new(0),
            slice_ns: 50_000,
        }
    }

    /// Charge `ns` of compute; advances the clock when a slice accumulates.
    #[inline]
    pub fn charge(&self, ns: u64) {
        self.pending.set(self.pending.get() + ns);
        if self.pending.get() >= self.slice_ns {
            self.flush();
        }
    }

    /// Push all accumulated compute into the clock.
    pub fn flush(&self) {
        let ns = self.pending.take();
        if ns == 0 {
            return;
        }
        let dur = SimDuration::from_nanos(ns);
        self.cpu.reserve(self.engine.now(), dur);
        self.engine.advance(dur);
    }
}

/// Encoding of a tree child slot.
const EMPTY: i64 = 0;

#[inline]
fn enc_node(idx: usize) -> i64 {
    idx as i64 + 1
}

#[inline]
fn enc_body(idx: usize) -> i64 {
    -(idx as i64 + 1)
}

struct Tree {
    /// 8 child slots per node: 0 empty, +k internal node k-1, -b body b-1.
    child: PagedVec<i64>,
    /// Cell geometry: (cx, cy, cz, half) per node.
    geom: PagedVec<f64>,
    /// Centre of mass: (mx, my, mz, m) per node.
    com: PagedVec<f64>,
    /// Second moments (qxx, qyy, qzz, qxy, qxz, qyz) per node — the
    /// quadrupole state SPLASH-2 cells carry. Computed in the
    /// centre-of-mass pass; kept for footprint fidelity (the force pass
    /// uses the monopole term, documented in DESIGN.md).
    quad: PagedVec<f64>,
    nodes: usize,
    cap: usize,
}

impl Tree {
    fn new(space: &AddressSpace, cap: usize) -> Tree {
        Tree {
            child: PagedVec::new(space, cap * 8),
            geom: PagedVec::new(space, cap * 4),
            com: PagedVec::new(space, cap * 4),
            quad: PagedVec::new(space, cap * 6),
            nodes: 0,
            cap,
        }
    }

    fn alloc_node(&mut self, cx: f64, cy: f64, cz: f64, half: f64) -> usize {
        assert!(self.nodes < self.cap, "octree capacity exceeded");
        let idx = self.nodes;
        self.nodes += 1;
        for c in 0..8 {
            self.child.set(idx * 8 + c, EMPTY);
        }
        self.geom.set(idx * 4, cx);
        self.geom.set(idx * 4 + 1, cy);
        self.geom.set(idx * 4 + 2, cz);
        self.geom.set(idx * 4 + 3, half);
        idx
    }

    fn octant(cx: f64, cy: f64, cz: f64, x: f64, y: f64, z: f64) -> usize {
        (usize::from(x >= cx)) | (usize::from(y >= cy) << 1) | (usize::from(z >= cz) << 2)
    }

    fn child_center(&self, node: usize, oct: usize) -> (f64, f64, f64, f64) {
        let cx = self.geom.get(node * 4);
        let cy = self.geom.get(node * 4 + 1);
        let cz = self.geom.get(node * 4 + 2);
        let h = self.geom.get(node * 4 + 3) / 2.0;
        (
            cx + if oct & 1 != 0 { h } else { -h },
            cy + if oct & 2 != 0 { h } else { -h },
            cz + if oct & 4 != 0 { h } else { -h },
            h,
        )
    }
}

/// The Barnes-Hut application state.
pub struct Barnes {
    params: BarnesParams,
    vm: Vm,
    pos: PagedVec<f64>,
    vel: PagedVec<f64>,
    acc: PagedVec<f64>,
    mass: PagedVec<f64>,
    /// Gravitational potential per body (SPLASH-2 tracks it; also a
    /// physics sanity output).
    phi: PagedVec<f64>,
    /// Work counter per body (SPLASH-2 uses it for load balancing).
    cost: PagedVec<u64>,
    tree_space: AddressSpace,
    meter: ComputeMeter,
    interactions: u64,
    /// Per-step modeled costs (ns).
    cost_interaction: u64,
    cost_tree_level: u64,
    cost_body_update: u64,
}

impl Barnes {
    /// Initialise bodies uniformly in the unit cube with small random
    /// velocities.
    pub fn new(vm: &Vm, params: BarnesParams) -> Barnes {
        let cal: &Calibration = vm.calibration();
        let cost_interaction = cal.compute.barnes_ns_per_interaction;
        let body_space = AddressSpace::new(vm);
        let tree_space = AddressSpace::new(vm);
        let n = params.bodies;
        let meter = ComputeMeter::new(vm.engine().clone(), vm.node().cpu().clone());
        let mut rng = SimRng::new(params.seed);
        let pos = PagedVec::new(&body_space, 3 * n);
        let vel = PagedVec::new(&body_space, 3 * n);
        let acc = PagedVec::new(&body_space, 3 * n);
        let mass = PagedVec::new(&body_space, n);
        let phi = PagedVec::new(&body_space, n);
        let cost = PagedVec::new(&body_space, n);
        for b in 0..n {
            for d in 0..3 {
                pos.set(3 * b + d, rng.unit_f64());
                vel.set(3 * b + d, (rng.unit_f64() - 0.5) * 1e-3);
            }
            mass.set(b, 1.0 / n as f64);
            meter.charge(30);
        }
        Barnes {
            params,
            vm: vm.clone(),
            pos,
            vel,
            acc,
            mass,
            phi,
            cost,
            tree_space,
            meter,
            interactions: 0,
            cost_interaction,
            cost_tree_level: 20,
            cost_body_update: 15,
        }
    }

    /// Run the configured number of iterations; returns result counters.
    pub fn run(&mut self) -> BarnesResult {
        let mut tree_nodes = 0;
        for _ in 0..self.params.iterations {
            let tree = self.build_tree();
            tree_nodes = tree.nodes;
            self.compute_forces(&tree);
            self.integrate();
            // Tree storage is rebuilt next iteration; pages are reused via
            // the same address space allocations.
        }
        self.meter.flush();
        let ke = self.kinetic_energy();
        BarnesResult {
            interactions: self.interactions,
            tree_nodes,
            kinetic_energy: ke,
        }
    }

    #[expect(
        clippy::needless_range_loop,
        reason = "indexing c[d] alongside per-dim scans is clearest"
    )]
    fn bounding_box(&self) -> (f64, f64, f64, f64) {
        let n = self.params.bodies;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut c = [0.0f64; 3];
        for d in 0..3 {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for b in 0..n {
                let v = self.pos.get(3 * b + d);
                lo = lo.min(v);
                hi = hi.max(v);
                self.meter.charge(4);
            }
            c[d] = (lo + hi) / 2.0;
            min = min.min(lo);
            max = max.max(hi);
        }
        let half = ((max - min) / 2.0).max(1e-9) * 1.0001;
        (c[0], c[1], c[2], half)
    }

    fn build_tree(&mut self) -> Tree {
        let n = self.params.bodies;
        let cap = 2 * n + 64;
        let mut tree = Tree::new(&self.tree_space, cap);
        let (cx, cy, cz, half) = self.bounding_box();
        let root = tree.alloc_node(cx, cy, cz, half);
        for b in 0..n {
            let x = self.pos.get(3 * b);
            let y = self.pos.get(3 * b + 1);
            let z = self.pos.get(3 * b + 2);
            self.insert_body(&mut tree, root, b, x, y, z, 0);
        }
        // Centre-of-mass pass: children are created after their parents,
        // so a reverse sweep accumulates bottom-up.
        for node in (0..tree.nodes).rev() {
            let (mut mx, mut my, mut mz, mut m) = (0.0, 0.0, 0.0, 0.0);
            for c in 0..8 {
                let slot = tree.child.get(node * 8 + c);
                if slot == EMPTY {
                    continue;
                }
                if slot > 0 {
                    let k = (slot - 1) as usize;
                    // Child COM is stored normalized; re-weight by its mass.
                    let km = tree.com.get(k * 4 + 3);
                    mx += tree.com.get(k * 4) * km;
                    my += tree.com.get(k * 4 + 1) * km;
                    mz += tree.com.get(k * 4 + 2) * km;
                    m += km;
                } else {
                    let b = (-slot - 1) as usize;
                    let bm = self.mass.get(b);
                    mx += bm * self.pos.get(3 * b);
                    my += bm * self.pos.get(3 * b + 1);
                    mz += bm * self.pos.get(3 * b + 2);
                    m += bm;
                }
                self.meter.charge(self.cost_tree_level);
            }
            if m > 0.0 {
                tree.com.set(node * 4, mx / m);
                tree.com.set(node * 4 + 1, my / m);
                tree.com.set(node * 4 + 2, mz / m);
            }
            tree.com.set(node * 4 + 3, m);
            // Second moments about the cell centre (SPLASH-2's quadrupole
            // state; monopole-only force, documented simplification).
            let cx = tree.geom.get(node * 4);
            let cy = tree.geom.get(node * 4 + 1);
            let cz = tree.geom.get(node * 4 + 2);
            let dx = mx - m * cx;
            let dy = my - m * cy;
            let dz = mz - m * cz;
            tree.quad.set(node * 6, dx * dx);
            tree.quad.set(node * 6 + 1, dy * dy);
            tree.quad.set(node * 6 + 2, dz * dz);
            tree.quad.set(node * 6 + 3, dx * dy);
            tree.quad.set(node * 6 + 4, dx * dz);
            tree.quad.set(node * 6 + 5, dy * dz);
            self.meter.charge(self.cost_tree_level);
        }
        tree
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the body's coordinates travel unpacked down the descent loop"
    )]
    fn insert_body(
        &mut self,
        tree: &mut Tree,
        mut node: usize,
        body: usize,
        x: f64,
        y: f64,
        z: f64,
        mut depth: usize,
    ) {
        loop {
            self.meter.charge(self.cost_tree_level);
            let cx = tree.geom.get(node * 4);
            let cy = tree.geom.get(node * 4 + 1);
            let cz = tree.geom.get(node * 4 + 2);
            let oct = Tree::octant(cx, cy, cz, x, y, z);
            let slot_idx = node * 8 + oct;
            let slot = tree.child.get(slot_idx);
            if slot == EMPTY {
                tree.child.set(slot_idx, enc_body(body));
                return;
            }
            if slot > 0 {
                node = (slot - 1) as usize;
                depth += 1;
                continue;
            }
            // Occupied by a body: split the cell.
            let other = (-slot - 1) as usize;
            if depth > 60 {
                // Pathologically coincident positions: keep the newer body
                // in the same slot (mass conservation is negligible at
                // f64-random coincidence rates).
                tree.child.set(slot_idx, enc_body(body));
                return;
            }
            let (ncx, ncy, ncz, nh) = tree.child_center(node, oct);
            let fresh = tree.alloc_node(ncx, ncy, ncz, nh);
            tree.child.set(slot_idx, enc_node(fresh));
            // Re-insert the displaced body into the fresh cell, then loop
            // to place the current body.
            let ox = self.pos.get(3 * other);
            let oy = self.pos.get(3 * other + 1);
            let oz = self.pos.get(3 * other + 2);
            let ooct = Tree::octant(ncx, ncy, ncz, ox, oy, oz);
            tree.child.set(fresh * 8 + ooct, enc_body(other));
            node = fresh;
            depth += 1;
        }
    }

    fn compute_forces(&mut self, tree: &Tree) {
        let n = self.params.bodies;
        let theta2 = self.params.theta * self.params.theta;
        let eps2 = 1e-6;
        let mut stack: Vec<i64> = Vec::with_capacity(256);
        for b in 0..n {
            let x = self.pos.get(3 * b);
            let y = self.pos.get(3 * b + 1);
            let z = self.pos.get(3 * b + 2);
            let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
            let mut phi_acc = 0.0f64;
            let mut my_interactions = 0u64;
            stack.clear();
            stack.push(enc_node(0));
            while let Some(slot) = stack.pop() {
                if slot == EMPTY {
                    continue;
                }
                let (px, py, pz, m, open_children) = if slot > 0 {
                    let node = (slot - 1) as usize;
                    let m = tree.com.get(node * 4 + 3);
                    if m <= 0.0 {
                        continue;
                    }
                    let px = tree.com.get(node * 4);
                    let py = tree.com.get(node * 4 + 1);
                    let pz = tree.com.get(node * 4 + 2);
                    let size = tree.geom.get(node * 4 + 3) * 2.0;
                    let dx = px - x;
                    let dy = py - y;
                    let dz = pz - z;
                    let d2 = dx * dx + dy * dy + dz * dz + eps2;
                    if size * size > theta2 * d2 {
                        (0.0, 0.0, 0.0, 0.0, Some(node))
                    } else {
                        (px, py, pz, m, None)
                    }
                } else {
                    let other = (-slot - 1) as usize;
                    if other == b {
                        continue;
                    }
                    (
                        self.pos.get(3 * other),
                        self.pos.get(3 * other + 1),
                        self.pos.get(3 * other + 2),
                        self.mass.get(other),
                        None,
                    )
                };
                match open_children {
                    Some(node) => {
                        for c in 0..8 {
                            stack.push(tree.child.get(node * 8 + c));
                        }
                        self.meter.charge(self.cost_tree_level);
                    }
                    None => {
                        let dx = px - x;
                        let dy = py - y;
                        let dz = pz - z;
                        let d2 = dx * dx + dy * dy + dz * dz + eps2;
                        let inv = 1.0 / (d2 * d2.sqrt());
                        ax += m * dx * inv;
                        ay += m * dy * inv;
                        az += m * dz * inv;
                        phi_acc -= m / d2.sqrt();
                        my_interactions += 1;
                        self.interactions += 1;
                        self.meter.charge(self.cost_interaction);
                    }
                }
            }
            self.acc.set(3 * b, ax);
            self.acc.set(3 * b + 1, ay);
            self.acc.set(3 * b + 2, az);
            self.phi.set(b, phi_acc);
            self.cost.set(b, my_interactions);
        }
    }

    fn integrate(&mut self) {
        let n = self.params.bodies;
        let dt = self.params.dt;
        for b in 0..n {
            for d in 0..3 {
                let v = self.vel.get(3 * b + d) + self.acc.get(3 * b + d) * dt;
                self.vel.set(3 * b + d, v);
                self.pos.set(3 * b + d, self.pos.get(3 * b + d) + v * dt);
            }
            self.meter.charge(self.cost_body_update);
        }
    }

    fn kinetic_energy(&self) -> f64 {
        let n = self.params.bodies;
        let mut ke = 0.0;
        for b in 0..n {
            let vx = self.vel.get(3 * b);
            let vy = self.vel.get(3 * b + 1);
            let vz = self.vel.get(3 * b + 2);
            ke += 0.5 * self.mass.get(b) * (vx * vx + vy * vy + vz * vz);
        }
        ke
    }

    /// Interactions computed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// The VM in use.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::{Calibration, Node};
    use simcore::Engine;
    use std::rc::Rc;
    use vmsim::VmConfig;

    fn vm_fixture(frames: usize, swap_pages: u64) -> (Engine, Vm) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("client", 0, 2);
        let mut config = VmConfig::for_memory(frames as u64 * 4096);
        config.total_frames = frames;
        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), config);
        let backend =
            vmsim::BlockBackend::over_ramdisk(&engine, &cal, &node, swap_pages * 4096, "swap");
        vm.add_swap_backend(backend, 0);
        (engine, vm)
    }

    #[test]
    fn runs_and_produces_finite_physics() {
        let (_engine, vm) = vm_fixture(4096, 1024);
        let mut barnes = Barnes::new(
            &vm,
            BarnesParams {
                bodies: 512,
                iterations: 2,
                ..BarnesParams::default()
            },
        );
        let result = barnes.run();
        assert!(result.interactions > 0);
        assert!(result.tree_nodes > 0);
        assert!(result.kinetic_energy.is_finite());
        assert!(result.kinetic_energy > 0.0);
    }

    #[test]
    fn interaction_count_scales_subquadratically() {
        // Barnes-Hut point: interactions per body grow ~log N, not N.
        let count = |n: usize| {
            let (_e, vm) = vm_fixture(8192, 1024);
            let mut barnes = Barnes::new(
                &vm,
                BarnesParams {
                    bodies: n,
                    iterations: 1,
                    ..BarnesParams::default()
                },
            );
            barnes.run().interactions
        };
        let small = count(256);
        let large = count(1024);
        let quadratic_ratio = 16.0; // (1024/256)^2
        let actual_ratio = large as f64 / small as f64;
        assert!(
            actual_ratio < quadratic_ratio * 0.7,
            "tree code should beat O(N^2): ratio {actual_ratio}"
        );
    }

    #[test]
    fn pages_under_pressure_and_still_finishes() {
        // Footprint of 2048 bodies (+tree) greatly exceeds 48 frames.
        let (_engine, vm) = vm_fixture(48, 4096);
        let mut barnes = Barnes::new(
            &vm,
            BarnesParams {
                bodies: 2048,
                iterations: 1,
                ..BarnesParams::default()
            },
        );
        let result = barnes.run();
        assert!(result.kinetic_energy.is_finite());
        assert!(vm.stats().swap_outs > 0, "must have paged");
    }

    #[test]
    fn virtual_time_advances_with_compute() {
        let (engine, vm) = vm_fixture(4096, 64);
        let mut barnes = Barnes::new(
            &vm,
            BarnesParams {
                bodies: 512,
                iterations: 1,
                ..BarnesParams::default()
            },
        );
        barnes.run();
        assert!(engine.now().as_nanos() > 100_000, "compute must cost time");
    }
}
