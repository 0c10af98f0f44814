//! Rate-limited stderr progress reporting.
//!
//! [`Heartbeat`] is a plain progress meter any long-running loop can tick
//! (the `figures` harness ticks it per job); [`HeartbeatObserver`] adapts
//! it to the [`SimObserver`](crate::SimObserver) hook stream so `redhip-sim`
//! gets per-reference progress with negligible overhead.

use crate::SimObserver;
use std::io::Write;
use std::time::Instant;

/// Emits `done/total (pct) unit/s ETA` lines to stderr, at most once per
/// `interval_secs`.
#[derive(Debug)]
pub struct Heartbeat {
    label: String,
    unit: String,
    total: u64,
    done: u64,
    started: Instant,
    last_emit: Option<Instant>,
    interval_secs: f64,
    enabled: bool,
    /// The final 100% line went out (exactly once, whether `set_done`
    /// crossing the total or `finish` got there first).
    done_emitted: bool,
    /// Progress lines emitted (counted even when silent, so tests can
    /// assert emission behavior without capturing stderr).
    emits: u64,
}

impl Heartbeat {
    /// Creates a heartbeat for `total` units of work (0 = unknown total;
    /// percentage and ETA are then omitted). `label` prefixes each line,
    /// `unit` names the work item (e.g. `"refs"`, `"jobs"`).
    pub fn new(label: &str, unit: &str, total: u64) -> Self {
        Self {
            label: label.to_string(),
            unit: unit.to_string(),
            total,
            done: 0,
            started: Instant::now(),
            last_emit: None,
            interval_secs: 1.0,
            enabled: true,
            done_emitted: false,
            emits: 0,
        }
    }

    /// Overrides the minimum seconds between emitted lines (default 1.0).
    pub fn with_interval_secs(mut self, secs: f64) -> Self {
        self.interval_secs = secs;
        self
    }

    /// Disables output entirely (progress is still counted).
    pub fn silent(mut self) -> Self {
        self.enabled = false;
        self
    }

    /// Units completed so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Progress lines emitted so far (still counted when silent).
    pub fn emits(&self) -> u64 {
        self.emits
    }

    /// Records `n` more completed units and emits a line if the rate
    /// limit allows.
    pub fn add(&mut self, n: u64) {
        self.done += n;
        self.maybe_emit(false);
    }

    /// Sets the absolute completed count and emits a line if the rate
    /// limit allows, for callers that keep their own count. Parallel
    /// workers can instead share the heartbeat behind a `Mutex` and call
    /// [`Heartbeat::add`] once per finished job, as the sweep engine does
    /// (its cells take milliseconds, so the lock is never contended).
    ///
    /// Reaching a known total forces the final 100% line through the
    /// rate limiter — a run completing inside the last interval still
    /// reports completion — and emits it exactly once ([`Heartbeat::finish`]
    /// will not repeat it).
    pub fn set_done(&mut self, done: u64) {
        self.done = done;
        if self.total > 0 && done >= self.total && !self.done_emitted {
            self.done_emitted = true;
            self.maybe_emit(true);
        } else {
            self.maybe_emit(false);
        }
    }

    /// Emits a final line unconditionally (marks the run complete) —
    /// unless `set_done` already emitted the final 100% line.
    pub fn finish(&mut self) {
        if self.done_emitted && self.total > 0 && self.done >= self.total {
            return;
        }
        self.done_emitted = true;
        self.maybe_emit(true);
    }

    /// Formats the current progress line (without emitting it).
    pub fn line(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            self.done as f64 / elapsed
        } else {
            0.0
        };
        let mut s = format!("{}: {} {}", self.label, self.done, self.unit);
        if self.total > 0 {
            let pct = 100.0 * self.done as f64 / self.total as f64;
            s.push_str(&format!("/{} ({:.1}%)", self.total, pct));
        }
        s.push_str(&format!(" at {}/s", human_rate(rate)));
        if self.total > 0 && rate > 0.0 && self.done < self.total {
            let eta = (self.total - self.done) as f64 / rate;
            s.push_str(&format!(", ETA {}", human_secs(eta)));
        }
        if self.done >= self.total && self.total > 0 {
            s.push_str(&format!(", done in {}", human_secs(elapsed)));
        }
        s
    }

    fn maybe_emit(&mut self, force: bool) {
        let now = Instant::now();
        let due = match self.last_emit {
            None => self.started.elapsed().as_secs_f64() >= self.interval_secs,
            Some(prev) => now.duration_since(prev).as_secs_f64() >= self.interval_secs,
        };
        if force || due {
            self.last_emit = Some(now);
            self.emits += 1;
            if self.enabled {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "{}", self.line());
            }
        }
    }
}

/// `units/s` with k/M suffixes, three significant-ish digits.
fn human_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// Seconds as `Ns`, `NmNNs`, or `NhNNm`.
fn human_secs(secs: f64) -> String {
    let s = secs.round() as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

/// Adapts a [`Heartbeat`] to the observer hook stream. Checks the wall
/// clock only every `stride` references so the hot path stays cheap.
#[derive(Debug)]
pub struct HeartbeatObserver {
    heart: Heartbeat,
    pending: u64,
    stride: u64,
}

impl HeartbeatObserver {
    /// Wraps `heart`, batching reference counts so the clock is consulted
    /// roughly every 8192 references.
    pub fn new(heart: Heartbeat) -> Self {
        Self {
            heart,
            pending: 0,
            stride: 8192,
        }
    }

    /// The wrapped heartbeat.
    pub fn heartbeat(&self) -> &Heartbeat {
        &self.heart
    }
}

impl SimObserver for HeartbeatObserver {
    fn on_ref(&mut self, _core: usize, _access_cycles: u64, _energy_nj: f64) {
        self.pending += 1;
        if self.pending >= self.stride {
            self.heart.add(self.pending);
            self.pending = 0;
        }
    }

    fn on_window_close(&mut self) {
        if self.pending > 0 {
            self.heart.add(self.pending);
            self.pending = 0;
        }
        self.heart.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_formats_progress() {
        let mut h = Heartbeat::new("sim", "refs", 1000).silent();
        h.add(250);
        let line = h.line();
        assert!(line.starts_with("sim: 250 refs/1000 (25.0%)"), "{line}");
        assert!(line.contains("/s"), "{line}");
    }

    #[test]
    fn set_done_is_absolute() {
        let mut h = Heartbeat::new("sweep", "cells", 50).silent();
        h.set_done(10);
        h.set_done(30);
        assert_eq!(h.done(), 30);
        h.add(5);
        assert_eq!(h.done(), 35);
    }

    #[test]
    fn unknown_total_omits_percentage() {
        let mut h = Heartbeat::new("gen", "rows", 0).silent();
        h.add(42);
        let line = h.line();
        assert!(line.contains("42 rows"), "{line}");
        assert!(!line.contains('%'), "{line}");
    }

    #[test]
    fn human_units() {
        assert_eq!(human_rate(12.0), "12");
        assert_eq!(human_rate(1200.0), "1.2k");
        assert_eq!(human_rate(2_500_000.0), "2.50M");
        assert_eq!(human_secs(5.0), "5s");
        assert_eq!(human_secs(125.0), "2m05s");
        assert_eq!(human_secs(7260.0), "2h01m");
    }

    #[test]
    fn set_done_forces_the_final_line_through_the_rate_limiter() {
        // Interval far longer than the test: every emission below is
        // either the completion override or a double-print bug.
        let mut h = Heartbeat::new("sweep", "cells", 4)
            .silent()
            .with_interval_secs(3_600.0);
        h.set_done(1);
        assert_eq!(h.emits(), 0, "mid-run tick must stay rate-limited");
        h.set_done(4);
        assert_eq!(h.emits(), 1, "reaching the total must emit 100%");
        h.set_done(4);
        assert_eq!(h.emits(), 1, "completion line must not repeat");
        h.finish();
        assert_eq!(h.emits(), 1, "finish must not double-print the final line");
    }

    #[test]
    fn finish_still_emits_when_total_is_unknown_or_unreached() {
        let mut h = Heartbeat::new("gen", "rows", 0)
            .silent()
            .with_interval_secs(3_600.0);
        h.add(10);
        assert_eq!(h.emits(), 0);
        h.finish();
        assert_eq!(h.emits(), 1);

        let mut p = Heartbeat::new("sweep", "cells", 100)
            .silent()
            .with_interval_secs(3_600.0);
        p.set_done(40); // aborted early: finish must still report
        p.finish();
        assert_eq!(p.emits(), 1);
    }

    /// `Tee` fans one hook stream out to a collector-style observer and a
    /// `HeartbeatObserver`: both sides must see every reference, and the
    /// heartbeat must emit its single 100% line at window close.
    #[test]
    fn tee_composes_with_a_heartbeat_observer() {
        use crate::Tee;

        #[derive(Default)]
        struct CountRefs {
            refs: u64,
            closed: bool,
        }
        impl SimObserver for CountRefs {
            fn on_ref(&mut self, _core: usize, _cycles: u64, _nj: f64) {
                self.refs += 1;
            }
            fn on_window_close(&mut self) {
                self.closed = true;
            }
        }

        let hb = HeartbeatObserver::new(
            Heartbeat::new("sim", "refs", 64)
                .silent()
                .with_interval_secs(3_600.0),
        );
        let mut tee = Tee::new(CountRefs::default(), hb);
        for i in 0..64 {
            tee.on_ref(i % 2, 3, 0.25);
        }
        tee.on_window_close();
        assert_eq!(tee.a.refs, 64);
        assert!(tee.a.closed);
        assert_eq!(tee.b.heartbeat().done(), 64);
        assert_eq!(tee.b.heartbeat().emits(), 1, "exactly one final line");
    }

    #[test]
    fn observer_batches_refs() {
        let mut o = HeartbeatObserver::new(Heartbeat::new("sim", "refs", 100).silent());
        for _ in 0..100 {
            o.on_ref(0, 1, 0.0);
        }
        // Below the stride: counted only at flush.
        assert_eq!(o.heartbeat().done(), 0);
        o.on_window_close();
        assert_eq!(o.heartbeat().done(), 100);
    }
}
