//! `reproduce` refuses a command line it cannot honour instead of silently
//! running nothing (or everything).

use std::process::Command;

fn reproduce(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_experiment_lists_the_choices_and_exits_2() {
    let (code, stdout, stderr) = reproduce(&["-e", "bogus"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "nothing may run: {stdout}");
    assert!(stderr.contains("\"bogus\"") && stderr.contains("fig7|fig8"));
}

#[test]
fn flag_without_value_exits_2_instead_of_running_all() {
    for flag in ["-e", "--scale", "--runs"] {
        let (code, stdout, stderr) = reproduce(&[flag]);
        assert_eq!(code, Some(2), "{flag}");
        assert!(stdout.is_empty(), "{flag} fell back to a run: {stdout}");
        assert!(stderr.contains("needs a value") && stderr.contains("scrub"));
    }
}
