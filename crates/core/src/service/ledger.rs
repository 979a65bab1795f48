//! The submission protocol as one pure state machine. A [`Ledger`]
//! owns the queue, the closed and aborted flags, the admission policy,
//! the [`Breaker`] and one outcome slot per admitted ticket (the crate
//! README's "Concurrent serving" tabulates its transitions). It holds
//! no lock, starts no thread and never reads the clock: time arrives
//! only as `now` arguments, and simdx-lint's `[clock-confined]` rule
//! keeps it so. `service.rs` wraps it in the serving tier's one mutex.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use super::{
    AdmissionPolicy, Breaker, CloseMode, QueryRequest, QueryTicket, ServeOutcome, ServeReport,
    ServiceConfig,
};
use crate::error::SimdxError;
use crate::persist::DurableCheckpoint;
use crate::supervise::RunProgress;

/// One admitted, not-yet-served request.
pub(super) struct Entry {
    pub(super) ticket: usize,
    pub(super) request: QueryRequest,
    /// When it was admitted: its deadline and latency count from here.
    pub(super) submitted: Instant,
}

/// What [`Ledger::submit`] decided.
pub(super) enum Admission {
    Admitted(QueryTicket),
    /// The queue is full under [`AdmissionPolicy::Block`]: wait for a
    /// free slot or a close, then submit the request again.
    Full(QueryRequest),
    /// Shed, closed or overloaded; the request gets no ticket.
    Refused(SimdxError),
}

/// What [`Ledger::next`] hands a serving thread.
pub(super) enum Turn {
    /// Serve this request, then [`Ledger::finish`] its ticket.
    Run(Entry),
    /// Nothing is queued: wait for a submission or a close.
    Wait,
    /// Closed and drained, or aborted: the thread exits.
    Exit,
}

pub(super) struct Ledger<M: Copy> {
    queue: VecDeque<Entry>,
    depth: usize,
    admission: AdmissionPolicy,
    /// `None` when [`ServiceConfig::breaker_threshold`] is 0.
    breaker: Option<Breaker>,
    closed: bool,
    /// Set by [`CloseMode::Abort`]: queued requests are handed back
    /// unserved.
    aborted: bool,
    /// One slot per admitted ticket, indexed by it.
    slots: Vec<Option<ServeOutcome<M>>>,
    spilled: Vec<u64>,
    spill_failures: Vec<(u64, SimdxError)>,
}

impl<M: Copy> Ledger<M> {
    pub(super) fn new(config: &ServiceConfig) -> Self {
        Self {
            queue: VecDeque::with_capacity(config.queue_depth),
            depth: config.queue_depth,
            admission: config.admission,
            breaker: (config.breaker_threshold > 0)
                .then(|| Breaker::new(config.breaker_threshold, config.breaker_cooldown)),
            closed: false,
            aborted: false,
            slots: Vec::new(),
            spilled: Vec::new(),
            spill_failures: Vec::new(),
        }
    }

    /// Admission. A shedding breaker refuses first, so a sick service
    /// turns submissions away without blocking them. Then a closed pool
    /// refuses, and a full queue rejects or waits. Only a request that
    /// is about to be enqueued asks the breaker to admit it, so a
    /// refused one never takes the half-open probe.
    pub(super) fn submit(&mut self, request: QueryRequest, now: Instant) -> Admission {
        if !self.breaker.as_ref().is_some_and(|b| b.is_shedding(now)) {
            if self.closed {
                return Admission::Refused(SimdxError::InvalidQuery {
                    reason: "query pool is closed".to_string(),
                });
            }
            if self.queue.len() >= self.depth {
                return match self.admission {
                    AdmissionPolicy::Block => Admission::Full(request),
                    AdmissionPolicy::Reject => Admission::Refused(SimdxError::Overloaded {
                        capacity: self.depth,
                        depth: self.queue.len(),
                    }),
                };
            }
        }
        // A shedding breaker refuses here without a transition; any
        // other admits, taking the probe if it has cooled.
        if let Some(Err(retry_after)) = self.breaker.as_mut().map(|b| b.admit(now)) {
            return Admission::Refused(SimdxError::Unavailable { retry_after });
        }
        let ticket = self.slots.len();
        self.slots.push(None);
        self.queue.push_back(Entry {
            ticket,
            request,
            submitted: now,
        });
        Admission::Admitted(QueryTicket { index: ticket })
    }

    /// A serving thread's next turn. After an abort-mode close every
    /// queued request is published as a zero-progress, zero-attempt
    /// cancellation (it never started, so there is nothing to
    /// checkpoint); in-flight peers stop on their own through the
    /// pool's shutdown token.
    pub(super) fn next(&mut self, now: Instant) -> Turn {
        if self.aborted {
            for entry in self.queue.drain(..) {
                let waited = now.saturating_duration_since(entry.submitted);
                self.slots[entry.ticket] = Some(ServeOutcome {
                    seed: entry.request.seed,
                    result: Err(SimdxError::Cancelled {
                        progress: RunProgress {
                            iterations: 0,
                            edges_examined: 0,
                            elapsed: waited,
                        },
                    }),
                    latency: waited,
                    attempts: 0,
                    checkpoint: None,
                });
            }
            return Turn::Exit;
        }
        match self.queue.pop_front() {
            Some(entry) => Turn::Run(entry),
            None if self.closed => Turn::Exit,
            None => Turn::Wait,
        }
    }

    /// Publishes a served ticket's final outcome and feeds it to the
    /// breaker. Only a worker panic counts as a failure: supervision
    /// aborts and invalid queries say nothing about service health.
    pub(super) fn finish(&mut self, ticket: usize, outcome: ServeOutcome<M>, now: Instant) {
        if let Some(breaker) = &mut self.breaker {
            let panicked = matches!(outcome.result, Err(SimdxError::WorkerPanicked { .. }));
            breaker.record(panicked, now);
        }
        debug_assert!(self.slots[ticket].is_none(), "finished twice");
        self.slots[ticket] = Some(outcome);
    }

    /// Records how a finished ticket's durable spill went and hands the
    /// spilled checkpoint back to its outcome.
    pub(super) fn spilled(&mut self, frame: DurableCheckpoint<M>, result: Result<(), SimdxError>) {
        match result {
            Ok(()) => self.spilled.push(frame.ticket),
            Err(error) => self.spill_failures.push((frame.ticket, error)),
        }
        if let Some(Some(outcome)) = self.slots.get_mut(frame.ticket as usize) {
            outcome.checkpoint = Some(frame.checkpoint);
        }
    }

    /// Stops admission; [`CloseMode::Abort`] also stops serving queued
    /// requests. An `Abort` after a `Drain` still escalates.
    pub(super) fn close(&mut self, mode: CloseMode) {
        self.closed = true;
        self.aborted |= mode == CloseMode::Abort;
    }

    pub(super) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The report once every serving thread has exited: one outcome per
    /// admitted ticket, in ticket order. A ticket a serving thread ran
    /// took at least one attempt, so those are its turns (`batches`).
    pub(super) fn into_report(mut self, elapsed: Duration) -> ServeReport<M> {
        debug_assert!(self.slots.iter().all(Option::is_some));
        self.spilled.sort_unstable();
        self.spill_failures
            .sort_unstable_by_key(|(ticket, _)| *ticket);
        let outcomes: Vec<_> = self.slots.into_iter().flatten().collect();
        ServeReport {
            batches: outcomes.iter().filter(|o| o.attempts > 0).count() as u64,
            outcomes,
            elapsed,
            spilled: self.spilled,
            spill_failures: self.spill_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_lint::model::Schedules;

    fn ledger(depth: usize, admission: AdmissionPolicy) -> Ledger<u32> {
        Ledger::new(
            &ServiceConfig::default()
                .queue_depth(depth)
                .admission(admission),
        )
    }

    fn submit(ledger: &mut Ledger<u32>, seed: u32, now: Instant) -> Result<usize, SimdxError> {
        match ledger.submit(QueryRequest::new(seed), now) {
            Admission::Admitted(ticket) => Ok(ticket.index()),
            Admission::Refused(error) => Err(error),
            Admission::Full(_) => panic!("a Reject ledger never waits"),
        }
    }

    fn run(ledger: &mut Ledger<u32>, now: Instant) -> Entry {
        match ledger.next(now) {
            Turn::Run(entry) => entry,
            _ => panic!("expected a queued ticket"),
        }
    }

    /// A served outcome: a worker panic, or a result that names its own
    /// ticket so a model run can tell it from a cancellation.
    fn served(entry: &Entry, panicked: bool) -> ServeOutcome<u32> {
        ServeOutcome {
            seed: entry.request.seed,
            result: Err(if panicked {
                SimdxError::WorkerPanicked {
                    worker: 0,
                    payload: String::new(),
                }
            } else {
                SimdxError::OnlineOverflow {
                    iteration: entry.ticket as u32,
                }
            }),
            latency: Duration::ZERO,
            attempts: 1,
            checkpoint: None,
        }
    }

    #[test]
    fn a_refused_submission_does_not_take_the_half_open_probe() {
        let t0 = Instant::now();
        let cooled = t0 + Duration::from_millis(25);
        let mut ledger = Ledger::<u32>::new(
            &ServiceConfig::default()
                .queue_depth(1)
                .admission(AdmissionPolicy::Reject)
                .breaker(1, Duration::from_millis(20)),
        );
        assert_eq!(submit(&mut ledger, 0, t0), Ok(0));
        let first = run(&mut ledger, t0);
        assert_eq!(submit(&mut ledger, 1, t0), Ok(1));
        // One panic opens the breaker; the queue is full.
        ledger.finish(first.ticket, served(&first, true), t0);
        assert!(matches!(
            submit(&mut ledger, 2, cooled),
            Err(SimdxError::Overloaded {
                capacity: 1,
                depth: 1
            })
        ));
        // The refusal left the probe free: once a slot frees, the next
        // submission is admitted as the probe, and the one after sheds.
        run(&mut ledger, cooled);
        assert_eq!(submit(&mut ledger, 3, cooled), Ok(2));
        assert!(matches!(
            submit(&mut ledger, 4, cooled),
            Err(SimdxError::Unavailable { .. })
        ));
    }

    #[test]
    fn abort_hands_queued_tickets_back_and_keeps_in_flight_results() {
        let t0 = Instant::now();
        let later = t0 + Duration::from_millis(7);
        let mut ledger = ledger(4, AdmissionPolicy::Reject);
        for seed in 0..3 {
            assert_eq!(submit(&mut ledger, seed, t0), Ok(seed as usize));
        }
        let in_flight = run(&mut ledger, t0);
        ledger.close(CloseMode::Abort);
        assert!(matches!(ledger.next(later), Turn::Exit));
        assert_eq!(ledger.queued(), 0);
        ledger.finish(in_flight.ticket, served(&in_flight, false), later);
        let report = ledger.into_report(Duration::ZERO);
        assert_eq!(report.batches, 1);
        assert_eq!(report.outcomes[0].attempts, 1);
        for (seed, orphan) in report.outcomes.iter().enumerate().skip(1) {
            assert_eq!(orphan.seed, seed as u32);
            assert_eq!((orphan.attempts, orphan.latency), (0, later - t0));
            assert!(matches!(
                &orphan.result,
                Err(SimdxError::Cancelled { progress }) if progress.iterations == 0
            ));
        }
    }

    /// One logical thread of the model scenario.
    enum Actor {
        /// Submits seeds `0..3` in order; `pending` holds a request a
        /// full `Block` queue turned back, re-tried at the next step.
        Producer {
            results: Vec<Result<usize, SimdxError>>,
            pending: Option<QueryRequest>,
        },
        /// Closes once; `over_pending` records which submission, if
        /// any, was waiting at that moment.
        Closer {
            closed: bool,
            over_pending: Option<usize>,
        },
        /// `ran` counts the tickets it finished.
        Server {
            holding: Option<Entry>,
            exited: bool,
            ran: usize,
        },
    }

    const SUBMITS: usize = 3;

    /// Runs actor `id` one step at `now`; `false` when it had nothing
    /// left to do.
    fn step(
        actors: &mut [Actor],
        id: usize,
        ledger: &mut Ledger<u32>,
        mode: CloseMode,
        now: Instant,
    ) -> bool {
        let waiting = match &actors[0] {
            Actor::Producer {
                results,
                pending: Some(_),
            } => Some(results.len()),
            _ => None,
        };
        match &mut actors[id] {
            Actor::Producer { results, pending } => {
                if results.len() == SUBMITS {
                    return false;
                }
                let request = pending
                    .take()
                    .unwrap_or_else(|| QueryRequest::new(results.len() as u32));
                let closed = ledger.closed;
                let admission = ledger.submit(request, now);
                // After a close every submission, a waiting one too, is
                // refused as closed at once.
                assert!(
                    !closed
                        || matches!(
                            admission,
                            Admission::Refused(SimdxError::InvalidQuery { .. })
                        )
                );
                match admission {
                    Admission::Admitted(ticket) => results.push(Ok(ticket.index())),
                    Admission::Refused(error) => results.push(Err(error)),
                    Admission::Full(request) => *pending = Some(request),
                }
            }
            Actor::Closer {
                closed,
                over_pending,
            } => {
                if *closed {
                    return false;
                }
                (*closed, *over_pending) = (true, waiting);
                ledger.close(mode);
            }
            Actor::Server {
                holding,
                exited,
                ran,
            } => {
                if let Some(entry) = holding.take() {
                    ledger.finish(entry.ticket, served(&entry, false), now);
                    *ran += 1;
                } else if *exited {
                    return false;
                } else {
                    match ledger.next(now) {
                        Turn::Run(entry) => *holding = Some(entry),
                        Turn::Wait => {}
                        Turn::Exit => *exited = true,
                    }
                }
            }
        }
        true
    }

    #[test]
    fn every_call_order_gives_each_admitted_ticket_exactly_one_outcome() {
        // Producer: 3 submits at depth 2. Closer: one close. Two
        // servers: `next`, then `finish`. A step that would block leaves
        // its call pending for the actor's next step; after the
        // schedule, every actor runs to completion.
        let budget = [SUBMITS, 1, 2, 2];
        let now = Instant::now();
        let mut closes_over_pending = 0;
        for admission in [AdmissionPolicy::Block, AdmissionPolicy::Reject] {
            for mode in [CloseMode::Drain, CloseMode::Abort] {
                for schedule in Schedules::new(&budget) {
                    let mut ledger = ledger(2, admission);
                    let server = || Actor::Server {
                        holding: None,
                        exited: false,
                        ran: 0,
                    };
                    let mut actors = [
                        Actor::Producer {
                            results: Vec::new(),
                            pending: None,
                        },
                        Actor::Closer {
                            closed: false,
                            over_pending: None,
                        },
                        server(),
                        server(),
                    ];
                    for &id in &schedule {
                        step(&mut actors, id, &mut ledger, mode, now);
                    }
                    let mut rounds = 0;
                    while (0..actors.len())
                        .map(|id| step(&mut actors, id, &mut ledger, mode, now))
                        .fold(false, |a, b| a | b)
                    {
                        rounds += 1;
                        assert!(rounds < 100, "{schedule:?} does not terminate");
                    }
                    let [Actor::Producer { results, .. }, Actor::Closer { over_pending, .. }, ..] =
                        &actors
                    else {
                        unreachable!()
                    };
                    // A refused submission gets no ticket: the admitted
                    // ones hold tickets 0, 1, … in submission order.
                    let admitted: Vec<u32> = (0..SUBMITS as u32)
                        .filter(|&seed| results[seed as usize].is_ok())
                        .collect();
                    let tickets: Vec<usize> = results.iter().flatten().copied().collect();
                    assert_eq!(tickets, (0..admitted.len()).collect::<Vec<_>>());
                    assert_eq!(ledger.slots.len(), admitted.len());
                    for refused in results.iter().filter_map(|r| r.as_ref().err()) {
                        assert!(match refused {
                            SimdxError::Overloaded { .. } => admission == AdmissionPolicy::Reject,
                            SimdxError::InvalidQuery { .. } => true,
                            _ => false,
                        });
                    }
                    // A `Block` submit pending at close is refused as
                    // closed.
                    if let Some(waiting) = *over_pending {
                        closes_over_pending += 1;
                        assert!(matches!(
                            results[waiting],
                            Err(SimdxError::InvalidQuery { .. })
                        ));
                    }
                    // Exactly one outcome per admitted ticket (a second
                    // `finish` trips the ledger's debug assertion): a
                    // ticket a server ran keeps its own result; any
                    // other was queued at an abort.
                    let ran: usize = actors[2..]
                        .iter()
                        .map(|a| match a {
                            Actor::Server { ran, .. } => *ran,
                            _ => 0,
                        })
                        .sum();
                    let report = ledger.into_report(Duration::ZERO);
                    assert_eq!(report.outcomes.len(), admitted.len());
                    let mut cancelled = 0;
                    for (ticket, outcome) in report.outcomes.iter().enumerate() {
                        assert_eq!(outcome.seed, admitted[ticket]);
                        match (&outcome.result, outcome.attempts) {
                            (Err(SimdxError::OnlineOverflow { iteration }), 1) => {
                                assert_eq!(*iteration as usize, ticket);
                            }
                            (Err(SimdxError::Cancelled { progress }), 0) => {
                                assert_eq!(mode, CloseMode::Abort, "{schedule:?}");
                                assert_eq!((progress.iterations, progress.edges_examined), (0, 0));
                                cancelled += 1;
                            }
                            other => panic!("{schedule:?}: unexpected outcome {other:?}"),
                        }
                    }
                    assert_eq!(ran + cancelled, admitted.len(), "{schedule:?}");
                    assert_eq!(report.batches, ran as u64);
                }
            }
        }
        assert!(
            closes_over_pending > 0,
            "no schedule closed over a waiting submit"
        );
    }
}
