/**
 * @file
 * Unit tests for the mesh NoC and the memory system.
 */

#include <gtest/gtest.h>

#include "src/mem/memory.hh"
#include "src/noc/mesh.hh"
#include "src/sim/logging.hh"

namespace jumanji {
namespace {

MeshParams
paperMesh()
{
    MeshParams p;
    p.cols = 5;
    p.rows = 4;
    p.routerDelay = 2;
    p.linkDelay = 1;
    return p;
}

// --------------------------------------------------------------- Mesh

TEST(Mesh, Geometry)
{
    MeshTopology mesh(paperMesh());
    EXPECT_EQ(mesh.numTiles(), 20u);
    EXPECT_EQ(mesh.xOf(7), 2u);
    EXPECT_EQ(mesh.yOf(7), 1u);
}

TEST(Mesh, ManhattanHops)
{
    MeshTopology mesh(paperMesh());
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 4), 4u);   // across the top row
    EXPECT_EQ(mesh.hops(0, 19), 7u);  // corner to corner: 4 + 3
    EXPECT_EQ(mesh.hops(7, 12), 1u);  // adjacent rows, same column
}

TEST(Mesh, HopTableMatchesManhattanDistance)
{
    // Oracle: |dx| + |dy| from coordinates computed here, for every
    // tile pair on the paper mesh and on degenerate and square ones.
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {5, 4}, {1, 1}, {1, 7}, {8, 8}};
    for (const auto &[cols, rows] : shapes) {
        MeshParams p = paperMesh();
        p.cols = cols;
        p.rows = rows;
        MeshTopology mesh(p);
        for (std::uint32_t a = 0; a < cols * rows; a++) {
            for (std::uint32_t b = 0; b < cols * rows; b++) {
                const int dx = static_cast<int>(a % cols) -
                               static_cast<int>(b % cols);
                const int dy = static_cast<int>(a / cols) -
                               static_cast<int>(b / cols);
                ASSERT_EQ(mesh.hops(a, b),
                          static_cast<std::uint32_t>(std::abs(dx) +
                                                     std::abs(dy)))
                    << cols << "x" << rows << " " << a << "->" << b;
            }
        }
    }
}

TEST(Mesh, RejectsMeshesBeyondTheHopTable)
{
    MeshParams p = paperMesh();
    p.cols = 64;
    p.rows = 64;
    EXPECT_NO_THROW(MeshTopology{p});
    p.cols = 65;
    EXPECT_THROW(MeshTopology{p}, FatalError);
}

TEST(Mesh, HopsSymmetric)
{
    MeshTopology mesh(paperMesh());
    for (std::uint32_t a = 0; a < 20; a++)
        for (std::uint32_t b = 0; b < 20; b++)
            EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
}

TEST(Mesh, TraversalLatency)
{
    MeshTopology mesh(paperMesh());
    // 3 hops x (2-cycle router + 1-cycle link) = 9 cycles one way.
    EXPECT_EQ(mesh.traversalLatency(3), 9u);
    EXPECT_EQ(mesh.roundTrip(0, 19), 2u * 7u * 3u);
    EXPECT_EQ(mesh.roundTrip(5, 5), 0u);
}

TEST(Mesh, TilesByDistanceSortedAndComplete)
{
    MeshTopology mesh(paperMesh());
    auto order = mesh.tilesByDistance(0);
    EXPECT_EQ(order.size(), 20u);
    EXPECT_EQ(order.front(), 0u);
    for (std::size_t i = 1; i < order.size(); i++)
        EXPECT_GE(mesh.hops(0, order[i]), mesh.hops(0, order[i - 1]));
    // All tiles present exactly once.
    std::vector<bool> seen(20, false);
    for (auto t : order) seen[t] = true;
    for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Mesh, TilesByDistanceDeterministicTieBreak)
{
    MeshTopology mesh(paperMesh());
    auto a = mesh.tilesByDistance(7);
    auto b = mesh.tilesByDistance(7);
    EXPECT_EQ(a, b);
}

TEST(Mesh, CornerTiles)
{
    MeshTopology mesh(paperMesh());
    EXPECT_EQ(mesh.tileAt(0, 0), 0u);
    EXPECT_EQ(mesh.tileAt(4, 0), 4u);
    EXPECT_EQ(mesh.tileAt(0, 3), 15u);
    EXPECT_EQ(mesh.tileAt(4, 3), 19u);
    // Clamped when out of range.
    EXPECT_EQ(mesh.tileAt(100, 100), 19u);
}

TEST(Mesh, RejectsZeroDims)
{
    MeshParams p;
    p.cols = 0;
    EXPECT_THROW(MeshTopology{p}, FatalError);
}

TEST(Mesh, RouterDelaySensitivity)
{
    // Fig. 18's knob: traversal scales with router delay.
    for (Tick router : {1u, 2u, 3u}) {
        MeshParams p = paperMesh();
        p.routerDelay = router;
        MeshTopology mesh(p);
        EXPECT_EQ(mesh.traversalLatency(2), 2 * (router + 1));
    }
}

TEST(Mesh, TraverseWithoutContentionMatchesLatency)
{
    MeshTopology mesh(paperMesh());
    EXPECT_EQ(mesh.traverse(100, 0, 19, 4),
              100 + mesh.traversalLatency(7));
    EXPECT_EQ(mesh.linkWaitCycles(), 0u);
}

TEST(Mesh, TraverseContentionSerializesSharedLinks)
{
    MeshParams p = paperMesh();
    p.modelLinkContention = true;
    MeshTopology mesh(p);

    // Two messages entering the same first link at the same tick:
    // the second waits for the first's flits.
    Tick a = mesh.traverse(100, 0, 4, 4);
    Tick b = mesh.traverse(100, 0, 4, 4);
    EXPECT_GT(b, a);
    EXPECT_GT(mesh.linkWaitCycles(), 0u);
}

TEST(Mesh, TraverseDisjointRoutesDoNotInterfere)
{
    MeshParams p = paperMesh();
    p.modelLinkContention = true;
    MeshTopology mesh(p);

    // Opposite corners moving in disjoint directions share no links.
    Tick a = mesh.traverse(100, 0, 4, 4);   // top row, eastbound
    Tick b = mesh.traverse(100, 19, 15, 4); // bottom row, westbound
    EXPECT_EQ(a, 100 + mesh.traversalLatency(4));
    EXPECT_EQ(b, 100 + mesh.traversalLatency(4));
}

TEST(Mesh, TraverseZeroHopsInstant)
{
    MeshParams p = paperMesh();
    p.modelLinkContention = true;
    MeshTopology mesh(p);
    EXPECT_EQ(mesh.traverse(42, 7, 7, 4), 42u);
}

// ------------------------------------------------------------- Memory

TEST(Memory, FixedLatencyWhenIdle)
{
    MeshTopology mesh(paperMesh());
    MemoryParams params;
    params.accessLatency = 120;
    MemorySystem mem(params, mesh);
    auto r = mem.access(1000, 42, 0, false);
    EXPECT_EQ(r.latency, 120u + r.queueDelay);
}

TEST(Memory, ControllerMappingStable)
{
    MeshTopology mesh(paperMesh());
    MemorySystem mem(MemoryParams{}, mesh);
    for (LineAddr l = 0; l < 100; l++)
        EXPECT_EQ(mem.controllerFor(l), mem.controllerFor(l));
}

TEST(Memory, ControllersSpreadAcrossLines)
{
    MeshTopology mesh(paperMesh());
    MemoryParams params;
    params.controllers = 4;
    MemorySystem mem(params, mesh);
    std::vector<int> counts(4, 0);
    for (LineAddr l = 0; l < 4000; l++) counts[mem.controllerFor(l)]++;
    for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Memory, ControllersAtCorners)
{
    MeshTopology mesh(paperMesh());
    MemoryParams params;
    params.controllers = 4;
    MemorySystem mem(params, mesh);
    std::vector<std::uint32_t> tiles;
    for (std::uint32_t mc = 0; mc < 4; mc++)
        tiles.push_back(mem.controllerTile(mc));
    std::sort(tiles.begin(), tiles.end());
    EXPECT_EQ(tiles, (std::vector<std::uint32_t>{0, 4, 15, 19}));
}

TEST(Memory, BatchTrafficQueuesPerVm)
{
    MeshTopology mesh(paperMesh());
    MemoryParams params;
    params.serviceInterval = 4;
    params.partitionBandwidth = true;
    MemorySystem mem(params, mesh);
    mem.setActiveVms(4);

    // Find two lines on the same controller.
    LineAddr a = 0, b = 1;
    while (mem.controllerFor(b) != mem.controllerFor(a)) b++;

    auto first = mem.access(100, a, /*vm=*/0, false);
    auto second = mem.access(100, b, /*vm=*/0, false);
    EXPECT_EQ(first.queueDelay, 0u);
    // Second access from the same VM waits a full scaled interval.
    EXPECT_EQ(second.queueDelay, 4u * 4u);
}

TEST(Memory, DifferentVmsDoNotQueueOnEachOther)
{
    MeshTopology mesh(paperMesh());
    MemoryParams params;
    params.partitionBandwidth = true;
    MemorySystem mem(params, mesh);
    mem.setActiveVms(4);

    LineAddr a = 0, b = 1;
    while (mem.controllerFor(b) != mem.controllerFor(a)) b++;

    mem.access(100, a, /*vm=*/0, false);
    auto other = mem.access(100, b, /*vm=*/1, false);
    EXPECT_EQ(other.queueDelay, 0u);
}

TEST(Memory, LatencyCriticalBypassesBatchQueue)
{
    MeshTopology mesh(paperMesh());
    MemoryParams params;
    params.partitionBandwidth = true;
    MemorySystem mem(params, mesh);
    mem.setActiveVms(4);

    LineAddr a = 0, b = 1;
    while (mem.controllerFor(b) != mem.controllerFor(a)) b++;

    // Saturate VM 0's batch queue.
    for (int i = 0; i < 10; i++) mem.access(100, a, 0, false);
    // An LC access from the same VM is served immediately.
    auto lc = mem.access(100, b, 0, true);
    EXPECT_EQ(lc.queueDelay, 0u);
}

TEST(Memory, LcTrafficQueuesBehindLcOnly)
{
    MeshTopology mesh(paperMesh());
    MemoryParams params;
    params.serviceInterval = 4;
    MemorySystem mem(params, mesh);

    LineAddr a = 0, b = 1;
    while (mem.controllerFor(b) != mem.controllerFor(a)) b++;

    auto first = mem.access(100, a, 0, true);
    auto second = mem.access(100, b, 1, true);
    EXPECT_EQ(first.queueDelay, 0u);
    EXPECT_EQ(second.queueDelay, 4u);
}

TEST(Memory, UnpartitionedSharesOneQueue)
{
    MeshTopology mesh(paperMesh());
    MemoryParams params;
    params.serviceInterval = 4;
    params.partitionBandwidth = false;
    MemorySystem mem(params, mesh);

    LineAddr a = 0, b = 1;
    while (mem.controllerFor(b) != mem.controllerFor(a)) b++;

    mem.access(100, a, 0, false);
    auto second = mem.access(100, b, 3, false);
    EXPECT_EQ(second.queueDelay, 4u);
}

} // namespace
} // namespace jumanji
