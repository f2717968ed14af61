//! Library backing the `freqywm` command-line tool: [`parse_args`]
//! turns a command line into a [`Command`] by its subcommand's flag
//! table, and [`run`] runs it. Split from `main.rs` so both are
//! unit-testable.

pub mod args;
pub mod commands;
pub mod top;

pub use args::{parse_args, Command};
pub use commands::run;
