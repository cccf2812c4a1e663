#include "src/mem/memory.hh"

#include <algorithm>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"

namespace jumanji {

MemorySystem::MemorySystem(const MemoryParams &params,
                           const MeshTopology &mesh)
    : params_(params),
      busyUntil_(std::max(1u, params.controllers)),
      lcBusyUntil_(std::max(1u, params.controllers), 0),
      mcAccesses_(std::max(1u, params.controllers), 0),
      mcQueueCycles_(std::max(1u, params.controllers), 0),
      mcLcAccesses_(std::max(1u, params.controllers), 0)
{
    if (params.controllers == 0)
        fatal("MemorySystem: need at least one controller");

    // Controllers sit at the four corners (wrapping if fewer).
    const auto &mp = mesh.params();
    std::vector<std::uint32_t> corners = {
        mesh.tileAt(0, 0),
        mesh.tileAt(mp.cols - 1, 0),
        mesh.tileAt(0, mp.rows - 1),
        mesh.tileAt(mp.cols - 1, mp.rows - 1),
    };
    for (std::uint32_t mc = 0; mc < params.controllers; mc++)
        cornerTiles_.push_back(corners[mc % corners.size()]);
}

std::uint32_t
MemorySystem::controllerFor(LineAddr line) const
{
    // Interleave at line granularity with a mixed hash so that any
    // single app's stream spreads over all controllers.
    std::uint64_t x = line * 0x9e3779b97f4a7c15ull;
    return static_cast<std::uint32_t>((x >> 32) % params_.controllers);
}

std::uint32_t
MemorySystem::controllerTile(std::uint32_t mc) const
{
    JUMANJI_ASSERT(mc < cornerTiles_.size(), "no such memory controller");
    return cornerTiles_[mc];
}

void
MemorySystem::setActiveVms(std::uint32_t count)
{
    activeVms_ = std::max(1u, count);
    // Pre-size every controller's virtual-queue table for the VM ids
    // that will actually arrive, so the per-miss busy-until probe
    // never allocates in steady state.
    for (auto &queues : busyUntil_)
        queues.reserve(static_cast<VmId>(activeVms_));
}

MemAccessResult
MemorySystem::access(Tick now, LineAddr line, VmId vm,
                     bool latencyCritical)
{
    MemAccessResult result;
    result.controller = controllerFor(line);
    JUMANJI_ASSERT(result.controller < params_.controllers,
                   "controller index out of range");

    if (params_.partitionBandwidth && latencyCritical) {
        // Reserved LC share: queues only behind other LC traffic.
        Tick &busy = lcBusyUntil_[result.controller];
        Tick grant = std::max(now, busy);
        JUMANJI_ASSERT(grant >= now, "port grant precedes arrival");
        busy = grant + params_.serviceInterval;
        result.queueDelay = grant - now;
        result.latency = result.queueDelay + params_.accessLatency;
        accesses_++;
        queueCycles_ += result.queueDelay;
        mcAccesses_[result.controller]++;
        mcQueueCycles_[result.controller] += result.queueDelay;
        mcLcAccesses_[result.controller]++;
        return result;
    }

    // With partitioning each VM owns a virtual queue served at its
    // bandwidth share; without, all requests share one queue.
    VmId queueKey = params_.partitionBandwidth ? vm : 0;
    Tick interval = params_.serviceInterval;
    if (params_.partitionBandwidth)
        interval *= activeVms_;

    Tick &busy = busyUntil_[result.controller][queueKey];
    Tick grant = std::max(now, busy);
    busy = grant + interval;

    result.queueDelay = grant - now;
    result.latency = result.queueDelay + params_.accessLatency;
    JUMANJI_ASSERT(result.latency >= params_.accessLatency,
                   "memory latency below the fixed access latency");

    accesses_++;
    queueCycles_ += result.queueDelay;
    mcAccesses_[result.controller]++;
    mcQueueCycles_[result.controller] += result.queueDelay;
    return result;
}

void
MemorySystem::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + "accesses", "memory accesses across all MCs",
                   &accesses_);
    reg.addCounter(prefix + "queueCycles",
                   "cycles queued at memory controllers", &queueCycles_);
    for (std::uint32_t mc = 0; mc < mcAccesses_.size(); mc++) {
        std::string p = prefix + "mc" + statIndexName(mc) + ".";
        reg.addCounter(p + "accesses", "accesses at this controller",
                       &mcAccesses_[mc]);
        reg.addCounter(p + "queueCycles",
                       "queue cycles at this controller",
                       &mcQueueCycles_[mc]);
        reg.addCounter(p + "lcAccesses",
                       "accesses served from the reserved LC share",
                       &mcLcAccesses_[mc]);
    }
}

} // namespace jumanji
