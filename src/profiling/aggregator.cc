#include "profiling/aggregator.hh"

namespace accel::profiling {

using workload::ClibLeaf;
using workload::CopyOrigin;
using workload::Functionality;
using workload::KernelLeaf;
using workload::LeafCategory;
using workload::MemoryLeaf;
using workload::SyncLeaf;

namespace {

/** Map a trace's functionality to a Fig. 4 copy origin. */
CopyOrigin
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
        // The paper attributes all remaining copy sources to
        // application-logic execution.
        return CopyOrigin::ApplicationLogic;
    }
}

} // namespace

const Aggregator::SymbolTags &
Aggregator::tagsOf(const std::string &name)
{
    auto it = symbols_.find(name);
    if (it == symbols_.end()) {
        SymbolTags tags{leafTagger_.tag(name),
                        leafTagger_.memoryLeaf(name),
                        leafTagger_.kernelLeaf(name),
                        leafTagger_.syncLeaf(name),
                        leafTagger_.clibLeaf(name),
                        functionalityTagger_.marker(name)};
        it = symbols_.emplace(name, tags).first;
    }
    return it->second;
}

void
Aggregator::add(const CallTrace &trace)
{
    // Same rules as FunctionalityTagger::tag: the first frame whose
    // marker is set decides. Map references survive later inserts.
    const SymbolTags &tags = tagsOf(trace.leafFrame());
    LeafCategory leaf = tags.leaf;
    Functionality func = Functionality::Miscellaneous;
    for (const std::string &frame : trace.frames) {
        if (auto m = tagsOf(frame).marker) {
            func = *m;
            break;
        }
    }

    ++traces_;
    totalCycles_ += trace.cycles;
    leaf_[leaf].cycles += trace.cycles;
    leaf_[leaf].instructions += trace.instructions;
    functionality_[func].cycles += trace.cycles;
    functionality_[func].instructions += trace.instructions;

    if (auto m = tags.memory) {
        memory_[*m] += trace.cycles;
        if (*m == MemoryLeaf::Copy)
            copyOrigin_[originOf(func)] += trace.cycles;
    }
    if (auto k = tags.kernel)
        kernel_[*k] += trace.cycles;
    if (auto s = tags.sync)
        sync_[*s] += trace.cycles;
    if (auto c = tags.clib)
        clib_[*c] += trace.cycles;
}

void
Aggregator::addAll(const std::vector<CallTrace> &traces)
{
    for (const CallTrace &t : traces)
        add(t);
}

template <typename Category>
std::map<Category, double>
Aggregator::toPercent(const std::map<Category, double> &cycles)
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

std::map<LeafCategory, double>
Aggregator::leafBreakdown() const
{
    std::map<LeafCategory, double> cycles;
    for (const auto &[cat, totals] : leaf_)
        cycles[cat] = totals.cycles;
    return toPercent(cycles);
}

std::map<Functionality, double>
Aggregator::functionalityBreakdown() const
{
    std::map<Functionality, double> cycles;
    for (const auto &[cat, totals] : functionality_)
        cycles[cat] = totals.cycles;
    return toPercent(cycles);
}

std::map<MemoryLeaf, double>
Aggregator::memoryBreakdown() const
{
    return toPercent(memory_);
}

std::map<KernelLeaf, double>
Aggregator::kernelBreakdown() const
{
    return toPercent(kernel_);
}

std::map<SyncLeaf, double>
Aggregator::syncBreakdown() const
{
    return toPercent(sync_);
}

std::map<ClibLeaf, double>
Aggregator::clibBreakdown() const
{
    return toPercent(clib_);
}

std::map<CopyOrigin, double>
Aggregator::copyOriginBreakdown() const
{
    return toPercent(copyOrigin_);
}

} // namespace accel::profiling
