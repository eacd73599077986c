//! Byte-mutation and truncation robustness of the npy decoder.
//!
//! Small npy files with version 1.0 and 2.0 headers, in every element
//! type the importer reads, are mutated one byte at a time (each byte
//! XORed with 0x01, 0x80 and 0xFF in turn) and truncated at every
//! length. `ingest::parse_npy` may reject a mutant with a typed error,
//! but must not panic; a mutant that parses is read back element by
//! element through `get_f64` and `get_u64`, which must not panic either.

use falcon_dema::ingest::{parse_npy, write_npy};
use falcon_dema::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

/// Parses `bytes` and reads every element both ways; returns whether
/// the parse succeeded.
fn decode(bytes: &[u8]) -> bool {
    match parse_npy(bytes) {
        Ok(arr) => {
            for row in 0..arr.shape.0 {
                for col in 0..arr.shape.1 {
                    let _ = arr.get_f64(row, col);
                    let _ = arr.get_u64(row, col);
                }
            }
            true
        }
        Err(Error::InvalidData(_)) => false,
        Err(e) => panic!("parse_npy returned an untyped error: {e}"),
    }
}

/// Runs `decode` on every single-byte mutant and every truncation of
/// `bytes`, failing with the mutant's description if it panics. Returns
/// how many mutants parsed.
fn mutate_all(what: &str, bytes: &[u8]) -> usize {
    let mut accepted = 0;
    let mut run =
        |desc: String, mutant: &[u8]| match catch_unwind(AssertUnwindSafe(|| decode(mutant))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("{what}: {desc}: parse_npy or an element read panicked"),
        };
    let mut mutant = bytes.to_vec();
    for i in 0..bytes.len() {
        for mask in MASKS {
            mutant[i] ^= mask;
            run(format!("byte {i} ^ {mask:#04x}"), &mutant);
            mutant[i] ^= mask;
        }
    }
    for cut in 0..bytes.len() {
        run(format!("truncated to {cut} bytes"), &bytes[..cut]);
    }
    accepted
}

/// The same array with a version 2.0 preamble: a four-byte header
/// length instead of two.
fn as_v2(v1: &[u8]) -> Vec<u8> {
    let header_len = u16::from_le_bytes([v1[8], v1[9]]);
    let mut v2 = b"\x93NUMPY\x02\x00".to_vec();
    v2.extend_from_slice(&u32::from(header_len).to_le_bytes());
    v2.extend_from_slice(&v1[10..]);
    v2
}

#[test]
fn npy_mutants_never_panic() {
    let arrays: [(&str, usize, usize, usize); 6] = [
        ("<f4", 3, 4, 4),
        ("<f8", 2, 3, 8),
        ("<u4", 1, 5, 4),
        ("<u8", 2, 2, 8),
        ("<i4", 4, 1, 4),
        ("<i8", 3, 2, 8),
    ];
    for (descr, rows, cols, size) in arrays {
        // Element bytes that include sign bits, NaN patterns and zeros.
        let data: Vec<u8> = (0..rows * cols * size).map(|i| (i * 37 + 11) as u8 ^ 0x80).collect();
        let mut v1 = Vec::new();
        write_npy(&mut v1, descr, rows, cols, &data).unwrap();
        let v2 = as_v2(&v1);
        for (version, bytes) in [("v1", v1), ("v2", v2)] {
            let clean = parse_npy(&bytes).unwrap();
            assert_eq!(clean.shape, (rows, cols), "{descr} {version}");
            // Payload mutants keep the header intact and must parse.
            let accepted = mutate_all(&format!("{descr} {version}"), &bytes);
            assert!(accepted >= 3 * data.len(), "{descr} {version}: {accepted} mutants parsed");
        }
    }
}
