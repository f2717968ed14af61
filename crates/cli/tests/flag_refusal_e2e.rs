//! The real `freqywm` binary refuses a misspelt flag before it does
//! anything: no in-memory batch standing in for a durable one, no
//! unauthenticated listener standing in for a locked one, no ledger
//! check under the default key standing in for the operator's.
#![cfg(unix)]

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "freqywm-flag-refusal-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

fn freqywm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_freqywm"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run freqywm")
}

fn assert_refused(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn misspelt_data_dir_refuses_the_batch() {
    let input = tmp("requests.jsonl");
    std::fs::write(&input, "{\"op\":\"metrics\"}\n").unwrap();
    let dir = tmp("data-dir");
    let out = freqywm(&[
        "batch",
        "--input",
        input.to_str().unwrap(),
        "--data-dri",
        dir.to_str().unwrap(),
    ]);
    assert_refused(&out, "--data-dri");
    assert!(out.stdout.is_empty(), "the batch must not run");
    assert!(!dir.exists(), "no data-dir may be created");
    let _ = std::fs::remove_file(&input);
}

#[test]
fn misspelt_auth_token_never_opens_a_listener() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_freqywm"))
        .args(["serve", "--listen", "127.0.0.1:0", "--auth-tokn", "t"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn freqywm serve");
    // A refused command line exits at once; a server that accepted it
    // would run until killed.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll freqywm serve") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .ok();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .ok();
    assert!(
        !stdout.contains("listening on"),
        "opened a listener: {stdout}"
    );
    assert_eq!(status.and_then(|s| s.code()), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag --auth-tokn"), "{stderr}");
}

#[test]
fn misspelt_ledger_key_refuses_the_verification() {
    // A real data-dir, so that a verification under the default key
    // would succeed.
    let input = tmp("register.jsonl");
    std::fs::write(
        &input,
        "{\"op\":\"register\",\"tenant\":\"t\",\"secret_label\":\"flag-refusal\"}\n",
    )
    .unwrap();
    let dir = tmp("ledger-dir");
    let dir = dir.to_str().unwrap();
    let out = freqywm(&[
        "batch",
        "--input",
        input.to_str().unwrap(),
        "--data-dir",
        dir,
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = freqywm(&["ledger", "verify", "--data-dir", dir]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let out = freqywm(&["ledger", "verify", "--data-dir", dir, "--ledger-kye", "x"]);
    assert_refused(&out, "--ledger-kye");
    assert!(out.stdout.is_empty(), "nothing may be verified");
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(&input);
}
