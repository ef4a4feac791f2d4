/**
 * @file
 * Differential test of the Aggregator's per-symbol tag memo: every
 * breakdown and total must equal, bit for bit, a reference that calls
 * LeafTagger and FunctionalityTagger afresh on every trace and
 * accumulates in the same order.
 */

#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "profiling/aggregator.hh"
#include "profiling/sampler.hh"

namespace accel::profiling {
namespace {

using workload::ClibLeaf;
using workload::CopyOrigin;
using workload::CpuGen;
using workload::Functionality;
using workload::KernelLeaf;
using workload::LeafCategory;
using workload::MemoryLeaf;
using workload::ServiceId;
using workload::SyncLeaf;

template <typename Category>
std::map<Category, double>
percent(const std::map<Category, double> &cycles)
{
    double total = 0;
    for (const auto &[cat, c] : cycles)
        total += c;
    std::map<Category, double> out;
    if (total <= 0)
        return out;
    for (const auto &[cat, c] : cycles)
        out[cat] = 100.0 * c / total;
    return out;
}

template <typename Category>
std::map<Category, double>
cyclesOf(const std::map<Category, CategoryTotals> &totals)
{
    std::map<Category, double> cycles;
    for (const auto &[cat, t] : totals)
        cycles[cat] = t.cycles;
    return cycles;
}

/** Unmemoized aggregation: both taggers run on every trace. */
struct Reference
{
    LeafTagger leafTagger;
    FunctionalityTagger functionalityTagger;
    double totalCycles = 0.0;
    std::map<LeafCategory, CategoryTotals> leaf;
    std::map<Functionality, CategoryTotals> functionality;
    std::map<MemoryLeaf, double> memory;
    std::map<KernelLeaf, double> kernel;
    std::map<SyncLeaf, double> sync;
    std::map<ClibLeaf, double> clib;
    std::map<CopyOrigin, double> copyOrigin;

    static CopyOrigin
    originOf(Functionality f)
    {
        switch (f) {
          case Functionality::SecureInsecureIO:
            return CopyOrigin::SecureInsecureIO;
          case Functionality::IOPrePostProcessing:
            return CopyOrigin::IOPrePostProcessing;
          case Functionality::Serialization:
            return CopyOrigin::Serialization;
          default:
            return CopyOrigin::ApplicationLogic;
        }
    }

    void
    add(const CallTrace &t)
    {
        const std::string &name = t.leafFrame();
        LeafCategory l = leafTagger.tag(name);
        Functionality f = functionalityTagger.tag(t);
        totalCycles += t.cycles;
        leaf[l].cycles += t.cycles;
        leaf[l].instructions += t.instructions;
        functionality[f].cycles += t.cycles;
        functionality[f].instructions += t.instructions;
        if (auto m = leafTagger.memoryLeaf(name)) {
            memory[*m] += t.cycles;
            if (*m == MemoryLeaf::Copy)
                copyOrigin[originOf(f)] += t.cycles;
        }
        if (auto k = leafTagger.kernelLeaf(name))
            kernel[*k] += t.cycles;
        if (auto s = leafTagger.syncLeaf(name))
            sync[*s] += t.cycles;
        if (auto c = leafTagger.clibLeaf(name))
            clib[*c] += t.cycles;
    }
};

template <typename Category>
void
expectSameTotals(const std::map<Category, CategoryTotals> &got,
                 const std::map<Category, CategoryTotals> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (const auto &[cat, t] : want) {
        ASSERT_EQ(got.count(cat), 1u);
        EXPECT_EQ(got.at(cat).cycles, t.cycles);
        EXPECT_EQ(got.at(cat).instructions, t.instructions);
    }
}

/** Feed @p traces to both sides and compare every output exactly. */
void
expectMemoExact(const std::vector<CallTrace> &traces)
{
    Aggregator agg;
    Reference ref;
    for (const CallTrace &t : traces) {
        agg.add(t);
        ref.add(t);
    }
    EXPECT_EQ(agg.traceCount(), traces.size());
    EXPECT_EQ(agg.totalCycles(), ref.totalCycles);
    expectSameTotals(agg.leafTotals(), ref.leaf);
    expectSameTotals(agg.functionalityTotals(), ref.functionality);
    EXPECT_EQ(agg.leafBreakdown(), percent(cyclesOf(ref.leaf)));
    EXPECT_EQ(agg.functionalityBreakdown(),
              percent(cyclesOf(ref.functionality)));
    EXPECT_EQ(agg.memoryBreakdown(), percent(ref.memory));
    EXPECT_EQ(agg.kernelBreakdown(), percent(ref.kernel));
    EXPECT_EQ(agg.syncBreakdown(), percent(ref.sync));
    EXPECT_EQ(agg.clibBreakdown(), percent(ref.clib));
    EXPECT_EQ(agg.copyOriginBreakdown(), percent(ref.copyOrigin));
}

TEST(AggregatorMemo, SampledServicesMatchUnmemoizedTaggers)
{
    for (ServiceId id : workload::characterizedServices()) {
        SCOPED_TRACE(workload::profile(id).name);
        TraceSampler sampler(workload::profile(id), CpuGen::GenC, 17);
        expectMemoExact(sampler.sampleMany(4000));
    }
}

CallTrace
trace(std::vector<std::string> frames, double cycles)
{
    CallTrace t;
    t.frames = std::move(frames);
    t.cycles = cycles;
    t.instructions = cycles * 0.75;
    return t;
}

TEST(AggregatorMemo, HandBuiltTracesMatchUnmemoizedTaggers)
{
    const std::vector<CallTrace> traces = {
        // Names that differ only in case are distinct memo keys with
        // the same case-insensitive tags.
        trace({"svc::app::handleRequest", "memcpy"}, 100),
        trace({"svc::APP::handleRequest", "MEMCPY"}, 200),
        trace({"svc::App::HandleRequest", "MemCpy"}, 300),
        // One frame name outer in one trace and inner in another: its
        // marker decides only where no outer frame has one.
        trace({"svc::log::appendLogEntry", "tc_malloc"}, 400),
        trace({"svc::app::handleRequest", "svc::log::appendLogEntry",
               "tc_malloc"},
              500),
        // The same name as a leaf in one trace and a frame in another.
        trace({"start_thread", "svc::compress::compressPayload"}, 600),
        trace({"svc::compress::compressPayload", "ZSTD_compressBlock_fast"},
              700),
        // A marker only on an inner frame.
        trace({"start_thread", "svc::server::serve",
               "ml::inference::predictRelevance", "mkl_blas_avx512_sgemm"},
              800),
        // No marker anywhere.
        trace({"start_thread", "svc_opaque_leaf"}, 900),
        // `free` is matched exactly, so `FREE` is not a memory leaf.
        trace({"svc::app::handleRequest", "free"}, 1000),
        trace({"svc::app::handleRequest", "FREE"}, 1100),
        trace({"folly::AsyncSSLSocket::performWrite", "free"}, 1200),
    };
    expectMemoExact(traces);

    Aggregator agg;
    agg.addAll(traces);
    EXPECT_EQ(agg.functionalityTotals().at(Functionality::Logging).cycles,
              400);
    EXPECT_EQ(agg.leafTotals().at(LeafCategory::Memory).cycles,
              100 + 200 + 300 + 400 + 500 + 1000 + 1200);
}

} // namespace
} // namespace accel::profiling
