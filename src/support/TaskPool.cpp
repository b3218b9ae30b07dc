//===- support/TaskPool.cpp -----------------------------------------------===//

#include "support/TaskPool.h"

using namespace dcb;

namespace {

/// Handles resolved once at static init; add()/record() on a disabled
/// registry cost one relaxed load each (see Telemetry.h).
struct PoolTelemetry {
  telemetry::Counter &Batches = telemetry::counter("taskpool.batches");
  telemetry::Counter &Tasks = telemetry::counter("taskpool.tasks");
  telemetry::Counter &BusyNs = telemetry::counter("taskpool.busy_ns");
  telemetry::Histogram &BatchNs = telemetry::histogram("taskpool.batch_ns");
  telemetry::Histogram &QueueWaitNs =
      telemetry::histogram("taskpool.queue_wait_ns");
  telemetry::Histogram &LaneBusyNs =
      telemetry::histogram("taskpool.lane_busy_ns");
  telemetry::Counter &Submitted = telemetry::counter("taskpool.submitted");
  telemetry::Counter &SubmitRejected =
      telemetry::counter("taskpool.submit_rejected");
  telemetry::Counter &SubmitExceptions =
      telemetry::counter("taskpool.submit_exceptions");
} Tel;

/// Runs every task on the calling thread as lane \p Lane. Tasks run in
/// index order, so the first exception is the lowest index's; the rest
/// still run, as they would on the lanes.
void runInline(size_t Tasks,
               const std::function<void(unsigned, size_t)> &TaskFn,
               unsigned Lane) {
  std::exception_ptr Error;
  for (size_t Idx = 0; Idx < Tasks; ++Idx) {
    try {
      TaskFn(Lane, Idx);
    } catch (...) {
      if (!Error)
        Error = std::current_exception();
    }
  }
  if (Error)
    std::rethrow_exception(Error);
}

} // namespace

unsigned TaskPool::resolveThreads(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = std::thread::hardware_concurrency();
  return std::max(1u, NumThreads);
}

unsigned BatchOptions::lanesFor(size_t NumItems) const {
  const size_t Chunk = std::max<size_t>(1, ChunkSize);
  const size_t NumChunks = (NumItems + Chunk - 1) / Chunk;
  return static_cast<unsigned>(std::clamp<size_t>(
      NumChunks, 1, TaskPool::resolveThreads(NumThreads)));
}

TaskPool::TaskPool(unsigned NumThreads) {
  NumThreads = resolveThreads(NumThreads);
  LaneState = std::make_unique<Lane[]>(NumThreads - 1);
  Workers.reserve(NumThreads - 1);
  for (unsigned W = 0; W + 1 < NumThreads; ++W)
    Workers.emplace_back([this, W] { workerLoop(W); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  for (size_t W = 0; W < Workers.size(); ++W)
    LaneState[W].Wake.notify_one();
  for (std::thread &T : Workers)
    T.join();
}

TaskPool &TaskPool::process() {
  // Deliberately leaked: a worker parked at exit is harmless, while
  // joining in a static destructor would race callers still running.
  static TaskPool *Pool = new TaskPool(0);
  return *Pool;
}

void TaskPool::workerLoop(unsigned WorkerIdx) {
  Lane &Me = LaneState[WorkerIdx];
  for (;;) {
    std::function<void()> Task;
    bool Join = false;
    {
      std::unique_lock<std::mutex> Lock(M);
      // Idle is set on each park: trySubmit clears it on the worker it
      // wakes, and if another worker took that task first, this one must
      // be findable again before it waits.
      while (!(Stopping || Me.Assigned || !Submitted.empty())) {
        Me.Idle = true;
        Me.Wake.wait(Lock);
      }
      Me.Idle = false;
      // Batches are barriers their caller waits on, so they outrank
      // queued tasks. On shutdown, accepted submissions still run before
      // the worker exits — trySubmit never silently drops a task.
      if (Me.Assigned) {
        Me.Assigned = false; // Started: the caller now waits for this lane.
        Join = true;
      } else if (!Submitted.empty()) {
        Task = std::move(Submitted.front());
        Submitted.pop_front();
        ++SubmittedRunning;
      } else {
        return; // Stopping.
      }
    }
    if (!Join) {
      runSubmitted(Task);
      continue;
    }
    drainBatch(WorkerIdx);
    std::lock_guard<std::mutex> Lock(M);
    if (--Active == 0)
      BatchDone.notify_all();
  }
}

void TaskPool::runSubmitted(std::function<void()> &Task) {
  try {
    Task();
  } catch (...) {
    Tel.SubmitExceptions.add();
  }
  std::lock_guard<std::mutex> Lock(M);
  if (--SubmittedRunning == 0 && Submitted.empty())
    SubmittedDone.notify_all();
}

TaskPool::Submit TaskPool::trySubmit(std::function<void()> Task,
                                     size_t MaxQueued) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Workers.empty()) {
      if (MaxQueued != 0 && Submitted.size() >= MaxQueued) {
        Tel.SubmitRejected.add();
        return Submit::WouldBlock;
      }
      Submitted.push_back(std::move(Task));
      Tel.Submitted.add();
      // Wake one parked worker; with none parked, a busy one takes the
      // task when it next looks at the queue.
      for (size_t W = 0; W < Workers.size(); ++W)
        if (LaneState[W].Idle) {
          LaneState[W].Idle = false;
          LaneState[W].Wake.notify_one();
          break;
        }
      return Submit::Queued;
    }
    // No workers: run inline below. The queue never grows, so a bound
    // can't be exceeded; count the task as started while still locked.
    ++SubmittedRunning;
    Tel.Submitted.add();
  }
  runSubmitted(Task);
  return Submit::Queued;
}

void TaskPool::drainSubmitted() {
  std::unique_lock<std::mutex> Lock(M);
  SubmittedDone.wait(
      Lock, [&] { return Submitted.empty() && SubmittedRunning == 0; });
}

size_t TaskPool::submittedPending() const {
  std::lock_guard<std::mutex> Lock(M);
  return Submitted.size() + SubmittedRunning;
}

void TaskPool::drainBatch(unsigned WorkerIdx) {
  // Timing/BatchStartNs were written under M before this lane woke (or, for
  // the calling lane, on this thread), so the unlocked reads are ordered.
  // Two clock reads per lane per batch — queue wait (publish -> first
  // claim) and busy time (whole drain) — keep the per-task loop clean.
  const bool Timed = Timing;
  const uint64_t DrainStart = Timed ? telemetry::nowNs() : 0;
  for (;;) {
    size_t Idx = Next.fetch_add(1, std::memory_order_relaxed);
    if (Idx >= NumTasks)
      break;
    try {
      (*Fn)(WorkerIdx, Idx);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(M);
      if (!FirstError || Idx < FirstErrorIdx) {
        FirstError = std::current_exception();
        FirstErrorIdx = Idx;
      }
    }
  }
  if (Timed) {
    uint64_t DrainEnd = telemetry::nowNs();
    Tel.QueueWaitNs.record(DrainStart - BatchStartNs);
    Tel.LaneBusyNs.record(DrainEnd - DrainStart);
    Tel.BusyNs.add(DrainEnd - DrainStart);
    if (telemetry::spansEnabled())
      telemetry::recordSpan("taskpool.drain", DrainStart,
                            DrainEnd - DrainStart);
  }
}

void TaskPool::parallelFor(
    size_t Tasks, const std::function<void(unsigned, size_t)> &TaskFn,
    unsigned MaxLanes) {
  if (Tasks == 0)
    return;
  telemetry::ScopedSpan Span("taskpool.batch");
  const bool Counting = telemetry::countersEnabled();
  if (Counting) {
    Tel.Batches.add();
    Tel.Tasks.add(Tasks);
  }
  const size_t Lanes = std::min<size_t>(
      {Tasks, numThreads(), MaxLanes ? MaxLanes : numThreads()});
  uint64_t Start = 0;
  {
    std::unique_lock<std::mutex> Lock(M);
    if (Lanes <= 1 || InBatch) {
      Lock.unlock();
      runInline(Tasks, TaskFn, static_cast<unsigned>(Workers.size()));
      return;
    }
    InBatch = true;
    Fn = &TaskFn;
    NumTasks = Tasks;
    Next.store(0, std::memory_order_relaxed);
    FirstError = nullptr;
    FirstErrorIdx = 0;
    Timing = Counting || telemetry::spansEnabled();
    BatchStartNs = Timing ? telemetry::nowNs() : 0;
    Start = BatchStartNs;
    // Lanes go by worker index, so a batch of N lanes always runs on
    // workers 0..N-2 and the caller.
    for (size_t W = 0; W + 1 < Lanes; ++W)
      LaneState[W].Assigned = true;
    Active = Lanes - 1;
  }
  for (size_t W = 0; W + 1 < Lanes; ++W)
    LaneState[W].Wake.notify_one();

  // The caller is the highest-numbered lane.
  drainBatch(static_cast<unsigned>(Workers.size()));

  std::exception_ptr Error;
  {
    std::unique_lock<std::mutex> Lock(M);
    // Every task is claimed, so a lane that has not started yet (busy
    // with a submitted task) is released instead of waited for.
    for (size_t W = 0; W + 1 < Lanes; ++W)
      if (LaneState[W].Assigned) {
        LaneState[W].Assigned = false;
        --Active;
      }
    BatchDone.wait(Lock, [&] { return Active == 0; });
    Fn = nullptr;
    InBatch = false;
    Error = std::move(FirstError);
    FirstError = nullptr;
  }
  if (Counting)
    Tel.BatchNs.record(telemetry::nowNs() - Start);
  if (Error)
    std::rethrow_exception(Error);
}
