//! Output checks that do not trust the SAT solver: exhaustive simulation of
//! both networks over every input assignment, in chunks of 2^16 patterns.

use bitsim::{AigSimulator, PatternSet, Signature};
use netlist::Aig;

/// Inputs beyond this make exhaustive checking too slow; every benchmark
/// input stays at or below it.
pub const MAX_EXHAUSTIVE_INPUTS: usize = 20;

const CHUNK_BITS: usize = 16;

/// `Ok` if `a` and `b` compute the same outputs on all `2^n` assignments.
pub fn equivalent(a: &Aig, b: &Aig) -> Result<(), String> {
    let n = a.num_inputs();
    if n != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return Err(format!(
            "interface differs: {}/{} inputs, {}/{} outputs",
            n,
            b.num_inputs(),
            a.num_outputs(),
            b.num_outputs()
        ));
    }
    if n > MAX_EXHAUSTIVE_INPUTS {
        return Err(format!("{n} inputs is too many for an exhaustive check"));
    }
    let low = n.min(CHUNK_BITS);
    let len = 1usize << low;
    let low_inputs: Vec<Signature> = (0..low).map(|i| counting_bit(i, len)).collect();
    for chunk in 0..1usize << (n - low) {
        let inputs: Vec<Signature> = (0..n)
            .map(|i| {
                if i < low {
                    low_inputs[i].clone()
                } else if (chunk >> (i - low)) & 1 == 1 {
                    Signature::ones(len)
                } else {
                    Signature::zeros(len)
                }
            })
            .collect();
        let patterns = PatternSet::from_input_signatures(inputs, len);
        let sa = AigSimulator::new(a).run(&patterns);
        let sb = AigSimulator::new(b).run(&patterns);
        for o in 0..a.num_outputs() {
            if sa.output_signature(a, o) != sb.output_signature(b, o) {
                return Err(format!("output {o} differs in assignment chunk {chunk}"));
            }
        }
    }
    Ok(())
}

/// Bit `i` of the pattern index over patterns `0..len`.
fn counting_bit(i: usize, len: usize) -> Signature {
    Signature::from_bits((0..len).map(|j| (j >> i) & 1 == 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(n: usize, twisted: bool) -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", n);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = aig.xor(acc, x);
        }
        if twisted {
            // Differs from the parity only when every input is 1.
            let all = aig.and_many(&xs);
            acc = aig.xor(acc, all);
        }
        aig.add_output("y", acc);
        aig
    }

    #[test]
    fn equal_networks_pass_and_a_single_differing_minterm_fails() {
        for n in [3, 17] {
            assert!(equivalent(&xor_chain(n, false), &xor_chain(n, false)).is_ok());
            assert!(equivalent(&xor_chain(n, false), &xor_chain(n, true)).is_err());
        }
    }
}
