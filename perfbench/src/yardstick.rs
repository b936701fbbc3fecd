//! The yardstick: a fixed piece of work that belongs to the benchmark and
//! is timed again and again through a run, so that each sample can be
//! stated at one reference speed of the machine.
//!
//! On a shared host, neighbours slow everything in this process together,
//! by up to 1.8×, for stretches of a minute or more; a whole run can fall
//! into one such stretch, and then no statistic over the run's own samples
//! removes it.  The yardstick slows with them.  A sample divided by the
//! median yardstick time within `WINDOW_S` of it, times `REFERENCE_S`,
//! keeps the program's speed and drops most of the machine's (see
//! `README.md`, "Calibration", for what it misses).  The yardstick uses
//! only the standard library, so no change to the program under test
//! moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use crate::report::median;

/// Nodes of the random graph the breadth-first search walks.
const NODES: usize = 1 << 18;
/// Out-edges per node.
const DEGREE: usize = 4;
/// Keys sorted, and keys inserted into and looked up in a hash map.
const SORTED: usize = 1 << 18;
const HASHED: usize = 1 << 16;
/// A nominal yardstick time, near its median on the 2-vCPU Xeon host the
/// benchmark was written on: calibrated times are seconds at that speed.
pub const REFERENCE_S: f64 = 0.02;
/// Readings this close to a sample, in seconds, calibrate it.  One reading
/// alone wavers by a quarter; the slow stretches last far longer.
const WINDOW_S: f64 = 5.0;

/// One timed call: its wall time and when it started, in seconds since
/// the yardstick was made.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub secs: f64,
    pub at: f64,
}

/// The yardstick's inputs, made once from a fixed seed, and its readings.
pub struct Yardstick {
    graph: Vec<u32>,
    keys: Vec<u32>,
    origin: Instant,
    /// `(at, secs)` of every reading so far.
    readings: Mutex<Vec<(f64, f64)>>,
}

impl Yardstick {
    pub fn new() -> Self {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let graph = (0..NODES * DEGREE)
            .map(|_| (next() % NODES as u64) as u32)
            .collect();
        let keys = (0..SORTED).map(|_| next() as u32).collect();
        let yardstick = Yardstick {
            graph,
            keys,
            origin: Instant::now(),
            readings: Mutex::new(Vec::new()),
        };
        // Warm-up: the first passes fault in pages and fill caches.
        for _ in 0..3 {
            yardstick.pass();
        }
        yardstick
    }

    /// Seconds since the yardstick was made.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times one pass and keeps the reading.
    pub fn measure(&self) {
        let at = self.now();
        let secs = self.pass();
        self.readings
            .lock()
            .expect("no thread panics holding the readings")
            .push((at, secs));
    }

    /// The median reading so far.
    pub fn median(&self) -> f64 {
        let readings = self
            .readings
            .lock()
            .expect("no thread panics holding the readings");
        median(&readings.iter().map(|&(_, secs)| secs).collect::<Vec<_>>())
    }

    /// `sample` at the reference speed: divided by the median reading
    /// within `WINDOW_S` of it (or by the nearest reading, if none is that
    /// close), times `REFERENCE_S`.
    pub fn calibrated(&self, sample: Sample) -> f64 {
        let readings = self
            .readings
            .lock()
            .expect("no thread panics holding the readings");
        let near: Vec<f64> = readings
            .iter()
            .filter(|(at, _)| (at - sample.at).abs() <= WINDOW_S)
            .map(|&(_, secs)| secs)
            .collect();
        let yard = if near.is_empty() {
            readings
                .iter()
                .min_by(|a, b| (a.0 - sample.at).abs().total_cmp(&(b.0 - sample.at).abs()))
                .map_or(f64::NAN, |&(_, secs)| secs)
        } else {
            median(&near)
        };
        sample.secs * REFERENCE_S / yard
    }

    /// Every sample of every item, calibrated.
    pub fn calibrate(&self, samples: &[Vec<Sample>]) -> Vec<Vec<f64>> {
        samples
            .iter()
            .map(|item| item.iter().map(|&s| self.calibrated(s)).collect())
            .collect()
    }

    /// Seconds one pass takes now: a breadth-first search over a random
    /// graph, a sort and hash-map inserts and lookups — pointer chasing,
    /// unpredictable branches and scattered stores, as in SAT search and
    /// simulation.
    fn pass(&self) -> f64 {
        // Reads the inputs back into the caches first, untimed, so that what
        // ran before does not change the pass.
        black_box(
            self.graph
                .iter()
                .chain(&self.keys)
                .fold(0u32, |a, &b| a ^ b),
        );
        let start = Instant::now();
        black_box(self.search());
        black_box(self.sort());
        black_box(self.hash());
        start.elapsed().as_secs_f64()
    }

    fn search(&self) -> usize {
        let mut seen = vec![false; NODES];
        let mut queue = Vec::with_capacity(NODES);
        seen[0] = true;
        queue.push(0u32);
        let mut head = 0;
        while let Some(&node) = queue.get(head) {
            head += 1;
            let edges = node as usize * DEGREE;
            for &next in &self.graph[edges..edges + DEGREE] {
                if !seen[next as usize] {
                    seen[next as usize] = true;
                    queue.push(next);
                }
            }
        }
        queue.len()
    }

    fn sort(&self) -> u32 {
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        keys[keys.len() / 2]
    }

    fn hash(&self) -> u64 {
        // Fixed hash keys, so every pass and every run does the same work.
        let mut map: HashMap<u32, u64, BuildHasherDefault<DefaultHasher>> =
            HashMap::with_capacity_and_hasher(HASHED, Default::default());
        for (i, &key) in self.keys[..HASHED].iter().enumerate() {
            map.insert(key, i as u64);
        }
        self.keys[..2 * HASHED]
            .iter()
            .map(|key| map.get(key).copied().unwrap_or(1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_readings(readings: &[(f64, f64)]) -> Yardstick {
        Yardstick {
            graph: Vec::new(),
            keys: Vec::new(),
            origin: Instant::now(),
            readings: Mutex::new(readings.to_vec()),
        }
    }

    #[test]
    fn calibrates_by_the_median_reading_nearby() {
        let y = REFERENCE_S;
        let yardstick = with_readings(&[(0.0, y), (1.0, 2.0 * y), (2.0, 2.0 * y), (20.0, 9.0 * y)]);
        let at_one = Sample { secs: 4.0, at: 1.0 };
        assert!((yardstick.calibrated(at_one) - 2.0).abs() < 1e-12);
        // Nothing within the window: the nearest reading counts.
        let late = Sample {
            secs: 9.0,
            at: 40.0,
        };
        assert!((yardstick.calibrated(late) - 1.0).abs() < 1e-12);
    }
}
