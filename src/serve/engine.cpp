#include "serve/engine.h"

#include <chrono>

#include "serve/executor.h"

namespace cdpu::serve
{

u64
fnv1a(ByteSpan data)
{
    u64 hash = 0xcbf29ce484222325ull;
    for (u8 byte : data) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace
{

using Clock = std::chrono::steady_clock;

/** Fills a call's outcome slot from the per-call step's result. */
void
recordOutcome(const CallResult &result, bool record_output,
              CallOutcome &outcome)
{
    outcome.executed = true;
    outcome.ok = result.status.ok();
    if (!outcome.ok)
        return;
    outcome.outputBytes = result.output.size();
    outcome.outputHash = fnv1a(result.output);
    if (record_output)
        outcome.output.assign(result.output.begin(), result.output.end());
}

/** Copies the executor's accounting into @p report (shared by the
 *  pool and the sequential oracle). */
void
finishReport(ReplayReport &report, const ExecutorCore &core,
             Clock::time_point started)
{
    report.elapsedSeconds =
        std::chrono::duration<double>(Clock::now() - started).count();
    core.report(report);
    report.kernel = core.kernel();
    report.executed = report.work.at("serve.calls");
    report.failed = report.work.at("serve.failures");
}

} // namespace

ReplayEngine::ReplayEngine(const EngineConfig &config) : config_(config)
{
    if (config_.workers == 0)
        config_.workers = 1;
    if (config_.batchSize == 0)
        config_.batchSize = 1;
    if (config_.queueCapacity == 0)
        config_.queueCapacity = 1;
}

ReplayReport
ReplayEngine::run(const hcb::CallStream &stream)
{
    ReplayReport report;
    report.outcomes.resize(stream.size());
    const auto started = Clock::now();

    Executor<hcb::CallBatch> executor(
        config_.workers, config_.queueCapacity, config_.telemetry,
        "serve",
        [&](Worker &worker, hcb::CallBatch &batch) {
            for (std::size_t i = 0; i < batch.count; ++i) {
                const hcb::ReplayCall &call = batch.calls[i];
                recordOutcome(worker.run(call), config_.recordOutputs,
                              report.outcomes[call.id]);
            }
        });

    // Producer: feed batches in stream order; whichever worker is free
    // takes the next one. A full queue blocks the producer: replay is
    // lossless.
    for (hcb::CallBatch &batch : stream.batches(config_.batchSize))
        executor.push(batch, kNoDeadline);
    executor.finish();

    finishReport(report, executor, started);
    return report;
}

ReplayReport
replaySequential(const hcb::CallStream &stream, bool record_outputs,
                 obs::Telemetry *telemetry)
{
    ReplayReport report;
    report.outcomes.resize(stream.size());
    const auto started = Clock::now();

    ExecutorCore core(1, telemetry);
    core.runAs(0, [&](Worker &worker) {
        for (const hcb::ReplayCall &call : stream.calls())
            recordOutcome(worker.run(call), record_outputs,
                          report.outcomes[call.id]);
    });
    finishReport(report, core, started);
    return report;
}

} // namespace cdpu::serve
