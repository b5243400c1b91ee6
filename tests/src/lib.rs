//! Integration test host crate for the NWCache workspace.

#![forbid(unsafe_code)]
