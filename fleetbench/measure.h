/**
 * @file
 * The two kinds of run: the untimed-layer end-to-end measurement of a
 * workload (trace 0) and the traced layer-by-layer walk (trace 1).
 */

#ifndef FLEETBENCH_MEASURE_H_
#define FLEETBENCH_MEASURE_H_

#include "bench.h"
#include "serve/engine.h"
#include "workloads.h"

namespace fleetbench
{

/** Server-side pool size: the load generator and the daemon's I/O
 *  threads keep the remaining cores of a 4-CPU host. */
inline constexpr unsigned kServerWorkers = 2;
/** Client connections. With one, the client thread (a sender and a
 *  receiver in the open loop) and the daemon's reader thread fit beside
 *  the two workers on a 4-CPU host; two connections ran less
 *  repeatably. */
inline constexpr unsigned kConnections = 1;
/** Closed loop: requests in flight per connection. */
inline constexpr unsigned kWindow = 16;
/** Set-ups per run; setup_s is their median. */
inline constexpr unsigned kSetupRepeats = 15;

struct RunConfig
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    std::string cdpudBinary;
    /** Sockets and trace files go here (inside the checkout). */
    std::string outDir;
    bool flipFirstResponseByte = false;
    /** Timed end-to-end phases start on a quiet host (not owned). */
    QuietHost *quiet = nullptr;
};

/** ReplayEngine settings shared by the bulk run and the layer walk. */
serve::EngineConfig engineConfigFor(const Workload &workload);

/** Runs the workload's end-to-end phases; bulk hands its input bytes
 *  to the replay streams, leaving @p workload's buffers empty. */
Status runEndToEnd(const RunConfig &config, Workload &workload,
                   Metrics &metrics, Outcome &outcome);

Status runLayers(const RunConfig &config, const Workload &workload,
                 Metrics &metrics, Outcome &outcome, SpanLog &spans);

} // namespace fleetbench

#endif // FLEETBENCH_MEASURE_H_
