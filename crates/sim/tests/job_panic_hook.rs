//! The job panic hook, in a test binary of its own: a panic hook is
//! process-wide, so no other test may run beside this one.

use std::sync::atomic::{AtomicUsize, Ordering};

use multicube_sim::pool::{install_job_panic_hook, JobId, Pool};

/// Panics reaching the hook that `install_job_panic_hook` replaces.
static REACHED: AtomicUsize = AtomicUsize::new(0);

/// A job's panic reaches its `JobPanic` with its location and not the
/// previous hook, on one worker (inline) and on two (threads); a panic
/// outside a job still reaches that hook. Installing twice installs once.
#[test]
fn a_job_panic_prints_once_through_its_job_panic() {
    std::panic::set_hook(Box::new(|_| {
        REACHED.fetch_add(1, Ordering::SeqCst);
    }));
    install_job_panic_hook();
    install_job_panic_hook();

    for workers in [1, 2] {
        let line = line!() + 3;
        let results = Pool::new(workers).map(vec![0u32, 1, 2], |_, i| {
            if i == 1 {
                panic!("poisoned job {i}");
            }
            i
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[2], Ok(2));
        let panic = results[1].as_ref().unwrap_err();
        assert_eq!(panic.job, JobId(1));
        assert_eq!(panic.message, "poisoned job 1");
        let location = panic.location.as_deref().expect("the hook records it");
        assert!(
            location.starts_with(&format!("{}:{line}:", file!())),
            "{location}"
        );
        assert_eq!(
            panic.to_string(),
            format!("job1 panicked at {location}: poisoned job 1")
        );
        assert_eq!(REACHED.load(Ordering::SeqCst), 0, "{workers} worker(s)");
    }

    let outside = std::panic::catch_unwind(|| panic!("outside any job"));
    assert!(outside.is_err());
    assert_eq!(
        REACHED.load(Ordering::SeqCst),
        1,
        "reaches the previous hook once"
    );
}
