//! Expected-fail fixture for `no-panic-lib`: every marked line must
//! produce exactly one diagnostic of that rule.

pub fn load(input: Option<u32>) -> u32 {
    let v = input.unwrap(); //~ no-panic-lib
    let w = input.expect("value must be present"); //~ no-panic-lib
    assert!(v < 100, "too big"); //~ no-panic-lib
    assert_eq!(v % 2, 0, "must be even"); //~ no-panic-lib
    assert_ne!(v, w); //~ no-panic-lib
    if w == 0 {
        panic!("zero is invalid"); //~ no-panic-lib
    }
    v + w
}
