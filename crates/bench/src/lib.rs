//! Figure-reproduction harness (see the `src/bin` targets). This library
//! hosts shared experiment plumbing.

pub mod experiments;
