//! Deterministic cooperative async engine with a virtual clock.
//!
//! This is the Hadron executor pattern: futures run on a single OS
//! thread, yield control only at `await` points, and a *preemption
//! budget* ([`Preemptor`]) bounds how much work a task may do between
//! yields — cooperative preemption with a deterministic trigger (an op
//! counter) instead of a wall-clock timer interrupt, so two runs poll
//! the exact same sequence of futures.
//!
//! Time is a [`VirtualClock`]: a slot counter that only advances when
//! every task is blocked, jumping straight to the earliest armed timer
//! (discrete-event style). Tasks wake in ascending spawn order within a
//! round, so the interleaving is a pure function of the program — the
//! property the serve replay differential test pins down.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Per-task wake flag; the executor polls a task when its flag is set.
struct WakeFlag {
    woken: AtomicBool,
}

impl Wake for WakeFlag {
    fn wake(self: Arc<Self>) {
        self.woken.store(true, Ordering::Release);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Release);
    }
}

impl WakeFlag {
    fn take(&self) -> bool {
        self.woken.swap(false, Ordering::AcqRel)
    }
}

struct TaskState {
    future: Pin<Box<dyn Future<Output = ()>>>,
    flag: Arc<WakeFlag>,
    waker: Waker,
    /// Set for the tasks a scheduling round polls: the woken flags are
    /// all taken before the round polls any task, so a wake raised
    /// during the round runs in the next one.
    runnable: bool,
}

#[derive(Default)]
struct ClockInner {
    now_slot: Cell<u64>,
    /// `(slot, arming seq)` → waker: the wakers of one slot fire in
    /// arming order. Keyed per waker rather than per slot, so a slot's
    /// wakers need no list of their own.
    timers: RefCell<BTreeMap<(u64, u64), Waker>>,
    /// Timers armed so far (the next timer's `seq`).
    armed: Cell<u64>,
}

/// Cloneable handle to the executor's virtual clock.
#[derive(Clone, Default)]
pub struct VirtualClock {
    inner: Rc<ClockInner>,
}

impl VirtualClock {
    /// The current virtual slot.
    pub fn now(&self) -> u64 {
        self.inner.now_slot.get()
    }

    /// A future that completes once the clock reaches `slot`.
    pub fn sleep_until(&self, slot: u64) -> Sleep {
        Sleep {
            clock: self.clone(),
            slot,
        }
    }

    fn arm(&self, slot: u64, waker: Waker) {
        let seq = self.inner.armed.get();
        self.inner.armed.set(seq.wrapping_add(1));
        self.inner.timers.borrow_mut().insert((slot, seq), waker);
    }

    /// Pops every timer armed for the earliest armed slot into `due`,
    /// in arming order, and returns that slot.
    fn pop_next_timers(&self, due: &mut Vec<Waker>) -> Option<u64> {
        let mut timers = self.inner.timers.borrow_mut();
        let (&(slot, _), _) = timers.first_key_value()?;
        while let Some(entry) = timers.first_entry().filter(|e| e.key().0 == slot) {
            due.push(entry.remove());
        }
        Some(slot)
    }

    fn jump_to(&self, slot: u64) {
        if slot > self.inner.now_slot.get() {
            self.inner.now_slot.set(slot);
        }
    }
}

/// Future returned by [`VirtualClock::sleep_until`].
pub struct Sleep {
    clock: VirtualClock,
    slot: u64,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.clock.now() >= self.slot {
            Poll::Ready(())
        } else {
            self.clock.arm(self.slot, cx.waker().clone());
            Poll::Pending
        }
    }
}

/// A future that yields exactly once, letting every other runnable task
/// poll before this one resumes.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Default)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct PreemptInner {
    quantum: u64,
    ops: Cell<u64>,
    preemptions: Cell<u64>,
}

/// Cooperative-preemption budget: tasks account work via
/// [`Preemptor::work`] and offer a yield point via
/// [`Preemptor::checkpoint`]; once the accounted ops exceed the quantum
/// the checkpoint yields (and counts a preemption) instead of running
/// straight through. Deterministic by construction — the trigger is an
/// op counter, not a timer.
#[derive(Clone)]
pub struct Preemptor {
    inner: Rc<PreemptInner>,
}

impl Preemptor {
    /// A preemptor yielding after roughly `quantum` accounted ops.
    pub fn new(quantum: u64) -> Self {
        Self {
            inner: Rc::new(PreemptInner {
                quantum: quantum.max(1),
                ops: Cell::new(0),
                preemptions: Cell::new(0),
            }),
        }
    }

    /// Accounts `ops` units of work against the current quantum.
    pub fn work(&self, ops: u64) {
        self.inner.ops.set(self.inner.ops.get().saturating_add(ops));
    }

    /// Number of times a checkpoint actually yielded.
    pub fn preemptions(&self) -> u64 {
        self.inner.preemptions.get()
    }

    /// A yield point: completes immediately while the quantum has
    /// headroom, yields once when it is exhausted.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            preemptor: self.clone(),
            yielded: false,
        }
    }
}

/// Future returned by [`Preemptor::checkpoint`].
pub struct Checkpoint {
    preemptor: Preemptor,
    yielded: bool,
}

impl Future for Checkpoint {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            return Poll::Ready(());
        }
        let inner = &self.preemptor.inner;
        if inner.ops.get() >= inner.quantum {
            inner.ops.set(0);
            inner
                .preemptions
                .set(inner.preemptions.get().saturating_add(1));
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        } else {
            Poll::Ready(())
        }
    }
}

/// Counters describing one [`Executor::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Individual future polls.
    pub polls: u64,
    /// Scheduling rounds (each polls every runnable task once).
    pub rounds: u64,
    /// Times the virtual clock jumped to the next armed timer.
    pub clock_advances: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Tasks left blocked with no armed timer (deadlock) at exit.
    pub stalled: u64,
}

/// Single-threaded cooperative executor over a [`VirtualClock`].
pub struct Executor {
    /// Tasks by id (= spawn order); `None` once a task completed.
    tasks: Vec<Option<TaskState>>,
    /// Tasks not yet completed.
    live: usize,
    clock: VirtualClock,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// An empty executor at virtual slot 0.
    pub fn new() -> Self {
        Self {
            tasks: Vec::new(),
            live: 0,
            clock: VirtualClock::default(),
        }
    }

    /// A handle to this executor's clock (clone freely into tasks).
    pub fn clock(&self) -> VirtualClock {
        self.clock.clone()
    }

    /// Spawns a task; tasks poll in ascending spawn order within each
    /// scheduling round. Returns the task id.
    pub fn spawn(&mut self, future: impl Future<Output = ()> + 'static) -> u64 {
        let id = self.tasks.len() as u64;
        let flag = Arc::new(WakeFlag {
            woken: AtomicBool::new(true),
        });
        let waker = Waker::from(Arc::clone(&flag));
        self.tasks.push(Some(TaskState {
            future: Box::pin(future),
            flag,
            waker,
            runnable: false,
        }));
        self.live += 1;
        id
    }

    /// Runs until every task completes (or deadlocks with no armed
    /// timer, reported via [`ExecutorStats::stalled`]).
    pub fn run(&mut self) -> ExecutorStats {
        let mut stats = ExecutorStats::default();
        let mut due: Vec<Waker> = Vec::new();
        loop {
            let mut runnable = 0usize;
            for task in self.tasks.iter_mut().flatten() {
                task.runnable = task.flag.take();
                runnable += usize::from(task.runnable);
            }
            if runnable == 0 {
                match self.clock.pop_next_timers(&mut due) {
                    Some(slot) => {
                        self.clock.jump_to(slot);
                        stats.clock_advances = stats.clock_advances.saturating_add(1);
                        for waker in due.drain(..) {
                            waker.wake();
                        }
                        continue;
                    }
                    None => {
                        stats.stalled = self.live as u64;
                        break;
                    }
                }
            }
            stats.rounds = stats.rounds.saturating_add(1);
            for entry in &mut self.tasks {
                let Some(task) = entry.as_mut().filter(|task| task.runnable) else {
                    continue;
                };
                let mut cx = Context::from_waker(&task.waker);
                stats.polls = stats.polls.saturating_add(1);
                if task.future.as_mut().poll(&mut cx).is_ready() {
                    *entry = None;
                    self.live -= 1;
                    stats.completed = stats.completed.saturating_add(1);
                }
            }
            if self.live == 0 {
                break;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_interleave_in_spawn_order_per_slot() {
        let mut exec = Executor::new();
        let clock = exec.clock();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let clock = clock.clone();
            let log = Rc::clone(&log);
            exec.spawn(async move {
                for slot in [2u64, 5, 9] {
                    clock.sleep_until(slot).await;
                    log.borrow_mut().push(format!("{name}@{slot}"));
                }
            });
        }
        let stats = exec.run();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.stalled, 0);
        assert_eq!(
            log.borrow().join(","),
            "a@2,b@2,a@5,b@5,a@9,b@9",
            "tasks sharing a timer slot wake in spawn order"
        );
    }

    #[test]
    fn clock_jumps_to_earliest_timer() {
        let mut exec = Executor::new();
        let clock = exec.clock();
        let seen = Rc::new(Cell::new(0u64));
        {
            let clock = clock.clone();
            let seen = Rc::clone(&seen);
            exec.spawn(async move {
                clock.sleep_until(1000).await;
                seen.set(clock.now());
            });
        }
        let stats = exec.run();
        assert_eq!(seen.get(), 1000);
        assert_eq!(stats.clock_advances, 1, "one discrete jump, not 1000 ticks");
    }

    #[test]
    fn preemptor_yields_only_past_quantum() {
        let mut exec = Executor::new();
        let preempt = Preemptor::new(10);
        let order = Rc::new(RefCell::new(Vec::new()));
        {
            let preempt = preempt.clone();
            let order = Rc::clone(&order);
            exec.spawn(async move {
                for step in 0..4u64 {
                    preempt.work(6);
                    preempt.checkpoint().await;
                    order.borrow_mut().push(format!("big{step}"));
                }
            });
        }
        {
            let order = Rc::clone(&order);
            exec.spawn(async move {
                order.borrow_mut().push("small".to_string());
            });
        }
        exec.run();
        // First checkpoint (6 ops) passes; second (12 ops) yields, letting
        // the small task slip in between.
        assert_eq!(order.borrow().join(","), "big0,small,big1,big2,big3");
        assert_eq!(preempt.preemptions(), 2);
    }

    #[test]
    fn yield_now_round_robins_runnable_tasks() {
        let mut exec = Executor::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["x", "y"] {
            let log = Rc::clone(&log);
            exec.spawn(async move {
                for _ in 0..2 {
                    log.borrow_mut().push(name);
                    yield_now().await;
                }
            });
        }
        exec.run();
        assert_eq!(log.borrow().join(""), "xyxy");
    }

    /// A round polls the tasks woken when it began: a wake raised by a
    /// task during the round runs the woken task in the next round.
    #[test]
    fn a_wake_raised_during_a_round_runs_in_the_next_round() {
        let mut exec = Executor::new();
        let parked: Rc<RefCell<Option<Waker>>> = Rc::default();
        {
            let parked = Rc::clone(&parked);
            exec.spawn(async move {
                yield_now().await;
                if let Some(waker) = parked.borrow_mut().take() {
                    waker.wake();
                }
            });
        }
        {
            let parked = Rc::clone(&parked);
            let mut polled = false;
            exec.spawn(std::future::poll_fn(move |cx| {
                if polled {
                    return Poll::Ready(());
                }
                polled = true;
                *parked.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }));
        }
        let stats = exec.run();
        assert_eq!((stats.rounds, stats.polls, stats.completed), (3, 4, 2));
    }

    #[test]
    fn deadlocked_task_is_reported_stalled() {
        let mut exec = Executor::new();
        exec.spawn(async move {
            std::future::pending::<()>().await;
        });
        let stats = exec.run();
        assert_eq!(stats.stalled, 1);
        assert_eq!(stats.completed, 0);
    }
}
