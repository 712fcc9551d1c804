//! Input generators and the per-case watchdog shared by the spec fuzz
//! batteries (`spec_fuzz.rs` here, `spec_fuzz.rs` in `crates/exp/tests`).

use std::sync::{mpsc, Arc};
use std::time::Duration;

/// What one input may take before the battery calls it a hang.
const BUDGET: Duration = Duration::from_secs(10);

/// Fragments inserted by the mutations and strung together by
/// [`random_strings`]: every grammar symbol, a multi-byte char, NUL, a digit
/// run past `u64`, an out-of-range float, then separators, units and the words
/// the registries know.
fn atoms() -> Vec<&'static str> {
    "( ) + , x @ é \0 99999999999999999999999999 1e999 \
     - . 0.5 us ghz at churn heal(all) links traffic hotspot random group lps x4"
        .split(' ')
        .chain([" "])
        .collect()
}

/// Every single-edit mutation of `spec`: each of the first ten [`atoms`]
/// inserted at each position, each byte deleted, each proper prefix.
pub fn single_edit_mutations(spec: &str) -> Vec<String> {
    assert!(spec.is_ascii(), "corpus specs are ASCII: {spec:?}");
    let atoms = atoms();
    let mut out = Vec::new();
    for at in 0..=spec.len() {
        for atom in &atoms[..10] {
            out.push(format!("{}{atom}{}", &spec[..at], &spec[at..]));
        }
        if at < spec.len() {
            out.push(format!("{}{}", &spec[..at], &spec[at + 1..]));
            out.push(spec[..at].to_string());
        }
    }
    out
}

/// `n` strings, deterministic in `seed`: half concatenations of [`atoms`],
/// half arbitrary bytes (made valid UTF-8 lossily).
pub fn random_strings(seed: u64, n: usize) -> Vec<String> {
    // SplitMix64: all the randomness a fuzz input needs, with no dependency.
    let mut state = seed;
    let mut below = move |bound: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let atoms = atoms();
    (0..n)
        .map(|i| {
            let len = below(24);
            if i % 2 == 0 {
                (0..len).map(|_| atoms[below(atoms.len())]).collect()
            } else {
                let bytes: Vec<u8> = (0..len).map(|_| below(256) as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            }
        })
        .collect()
}

/// Run `case` on every input, on a worker thread, and fail — naming the input
/// — if one panics or takes longer than [`BUDGET`] (a parser that hangs would
/// otherwise stall the suite instead of failing it).
pub fn within_budget(inputs: Vec<String>, case: fn(&str)) {
    let inputs = Arc::new(inputs);
    let (done, progress) = mpsc::channel();
    let worker = {
        let inputs = Arc::clone(&inputs);
        std::thread::spawn(move || {
            for input in inputs.iter() {
                case(input);
                if done.send(()).is_err() {
                    return;
                }
            }
        })
    };
    for input in inputs.iter() {
        match progress.recv_timeout(BUDGET) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("input {input:?} ran longer than {BUDGET:?}")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("input {input:?} panicked"),
        }
    }
    worker.join().expect("worker finished every input");
}
