/**
 * @file
 * Container decode: sequential reference reader + parallel scheduler.
 *
 * Both paths share one per-block routine and one accounting scheme, so
 * the differential contract (tests/container_test.cpp) is structural:
 * the parallel path can only differ from the reference by scheduling,
 * and scheduling-dependent accounting (batches) is quarantined in
 * DecodeReport::runtime exactly like serve::ReplayReport.
 *
 * Error semantics: every block is attempted regardless of earlier
 * failures — blocks are independent, the wasted work is bounded by the
 * already-validated index, and attempting all of them is what makes
 * the work counters a pure function of the frame at any worker count.
 * The returned verdict is the lowest-index failing block's status.
 */

#include "container/container.h"

#include <cstring>

#include "serve/executor.h"

namespace cdpu::container
{

namespace
{

/** Decode plan shared by both paths: the validated index plus each
 *  block's destination offset in the stitched output. */
struct Plan
{
    FrameIndex index;
    ByteSpan data;               ///< The frame's data section.
    std::vector<u64> dstOffsets; ///< Prefix sums of regenSize.
    std::string codecBlocksName; ///< container.blocks.<codec>
};

Result<Plan>
buildPlan(ByteSpan frame, u64 max_output_bytes)
{
    Result<FrameIndex> parsed = parseIndex(frame);
    if (!parsed.ok())
        return parsed.status();
    Plan plan;
    plan.index = std::move(parsed.value());
    // 0 is what a `{}` argument spells: the caller asked for the
    // default cap, not for an empty output.
    if (max_output_bytes == 0)
        max_output_bytes = kDefaultMaxOutputBytes;
    if (plan.index.totalRegenBytes > max_output_bytes) {
        // The index-driven allocation tripwire: reject the claim
        // before a single output byte is allocated.
        return Status::corrupt(
            "container index claims " +
            std::to_string(plan.index.totalRegenBytes) +
            " output bytes, over the " +
            std::to_string(max_output_bytes) + "-byte decode cap");
    }
    plan.data = frame.subspan(plan.index.dataStart);
    plan.dstOffsets.reserve(plan.index.blocks.size());
    u64 dst = 0;
    for (const BlockEntry &entry : plan.index.blocks) {
        plan.dstOffsets.push_back(dst);
        dst += entry.regenSize;
    }
    plan.codecBlocksName =
        "container.blocks." + codec::codecName(plan.index.codec);
    return plan;
}

/**
 * Decodes block @p i through @p context's reused scratch and stitches
 * it into @p out at the plan's offset. Work counters recorded here are
 * deterministic in the block alone; the caller owns @p work's
 * thread-confinement (per-worker shard or the sequential registry).
 */
Status
decodeBlock(serve::CodecContext &context, const Plan &plan,
            std::size_t i, u8 *out, obs::CounterRegistry &work)
{
    const BlockEntry &entry = plan.index.blocks[i];
    hcb::ReplayCall call;
    call.id = i;
    call.codec = plan.index.codec;
    call.direction = codec::Direction::decompress;
    call.payload = plan.data.subspan(
        static_cast<std::size_t>(entry.offset),
        static_cast<std::size_t>(entry.compSize));

    // The entry's regenSize is the block's output limit: a frame
    // claiming more is refused before the scratch grows.
    ByteSpan decoded;
    Status status = context.execute(call, decoded, entry.regenSize);
    if (status.ok() && decoded.size() != entry.regenSize) {
        status = Status::corrupt(
            "block " + std::to_string(i) + " regenerated " +
            std::to_string(decoded.size()) + " bytes, index claims " +
            std::to_string(entry.regenSize));
    }

    work.counter("container.blocks").increment();
    work.counter(plan.codecBlocksName).increment();
    work.counter("container.bytes.in").add(entry.compSize);
    work.histogram("container.block_regen_bytes")
        .record(entry.regenSize);
    if (status.ok()) {
        work.counter("container.blocks.ok").increment();
        work.counter("container.bytes.out").add(decoded.size());
        std::memcpy(out, decoded.data(), decoded.size());
    } else {
        work.counter("container.blocks.failed").increment();
        if (!status.message().starts_with("block "))
            status = Status(status.code(),
                            "block " + std::to_string(i) + ": " +
                                status.message());
    }
    return status;
}

void
fillReport(DecodeReport *report, const Plan &plan, bool decoded_ok,
           const serve::ExecutorCore &core)
{
    if (!report)
        return;
    report->work = core.work();
    report->runtime = core.runtime();
    report->blocks = plan.index.blocks.size();
    report->bytesOut = decoded_ok ? plan.index.totalRegenBytes : 0;
}

/** Lowest-index failure wins: the verdict any schedule agrees on. */
Status
firstFailure(const std::vector<Status> &statuses)
{
    for (const Status &status : statuses)
        if (!status.ok())
            return status;
    return Status::okStatus();
}

/** Decodes block @p i on @p worker. Workers write disjoint output
 *  ranges and disjoint status slots; stitching needs no lock. */
void
decodeOn(serve::Worker &worker, const Plan &plan, std::size_t i,
         Bytes &out, std::vector<Status> &statuses)
{
    worker.withWork([&](obs::CounterRegistry &registry) {
        statuses[i] = decodeBlock(
            worker.context(), plan, i,
            out.data() + static_cast<std::size_t>(plan.dstOffsets[i]),
            registry);
    });
}

} // namespace

Status
decodeSequential(ByteSpan frame, Bytes &out, u64 max_output_bytes,
                 DecodeReport *report)
{
    out.clear();
    if (report)
        *report = DecodeReport{};
    Result<Plan> planned = buildPlan(frame, max_output_bytes);
    if (!planned.ok())
        return planned.status();
    const Plan &plan = planned.value();
    out.resize(static_cast<std::size_t>(plan.index.totalRegenBytes));

    std::vector<Status> statuses(plan.index.blocks.size());
    serve::ExecutorCore core(1, nullptr);
    core.runAs(0, [&](serve::Worker &worker) {
        for (std::size_t i = 0; i < statuses.size(); ++i)
            decodeOn(worker, plan, i, out, statuses);
    });

    Status verdict = firstFailure(statuses);
    fillReport(report, plan, verdict.ok(), core);
    if (!verdict.ok())
        out.clear();
    return verdict;
}

Status
decodeParallel(ByteSpan frame, unsigned workers, Bytes &out,
               u64 max_output_bytes, DecodeReport *report)
{
    out.clear();
    if (report)
        *report = DecodeReport{};
    if (workers == 0)
        workers = 1;
    Result<Plan> planned = buildPlan(frame, max_output_bytes);
    if (!planned.ok())
        return planned.status();
    const Plan &plan = planned.value();
    out.resize(static_cast<std::size_t>(plan.index.totalRegenBytes));

    std::vector<Status> statuses(plan.index.blocks.size());
    serve::Executor<std::size_t> executor(
        workers, /*queue_capacity=*/64 * workers, nullptr, "container",
        [&](serve::Worker &worker, std::size_t &block) {
            decodeOn(worker, plan, block, out, statuses);
        });
    for (std::size_t i = 0; i < statuses.size(); ++i)
        executor.push(i, serve::kNoDeadline);
    executor.finish();

    Status verdict = firstFailure(statuses);
    fillReport(report, plan, verdict.ok(), executor);
    if (!verdict.ok())
        out.clear();
    return verdict;
}

} // namespace cdpu::container
