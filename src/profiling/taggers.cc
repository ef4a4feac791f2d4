#include "profiling/taggers.hh"

#include "util/string_utils.hh"

namespace accel::profiling {

using workload::ClibLeaf;
using workload::Functionality;
using workload::KernelLeaf;
using workload::LeafCategory;
using workload::MemoryLeaf;
using workload::SyncLeaf;

namespace {

/** Substring test on a name lower-cased once by the caller. */
bool
contains(const std::string &lower, const char *needle)
{
    return lower.find(needle) != std::string::npos;
}

} // namespace

LeafCategory
LeafTagger::tag(const std::string &leaf) const
{
    const std::string lower = toLower(leaf);
    // Order matters: kernel symbols first (futex_wait must not match the
    // mutex rule), then domain-specific libraries, then generic C++.
    if (contains(lower, "finish_task_switch") || contains(lower, "ep_poll") ||
        contains(lower, "tcp_") || contains(lower, "futex") ||
        contains(lower, "clear_page") || contains(lower, "do_syscall") ||
        contains(lower, "__schedule") || contains(lower, "net_rx")) {
        return LeafCategory::Kernel;
    }
    if (contains(lower, "zstd"))
        return LeafCategory::Zstd;
    if (contains(lower, "aes") || contains(lower, "evp_") ||
        contains(lower, "ssl_") || contains(lower, "chacha")) {
        return LeafCategory::Ssl;
    }
    if (contains(lower, "sha") || contains(lower, "fnv") ||
        contains(lower, "siphash") || contains(lower, "crc32")) {
        return LeafCategory::Hashing;
    }
    if (contains(lower, "mkl") || contains(lower, "_mm") ||
        contains(lower, "blas") || contains(lower, "fmadd")) {
        return LeafCategory::Math;
    }
    if (contains(lower, "memcpy") || contains(lower, "memmove") ||
        contains(lower, "memset") || contains(lower, "memcmp") ||
        contains(lower, "malloc") || contains(lower, "calloc") ||
        contains(lower, "tc_free") || contains(lower, "cfree") ||
        contains(lower, "operator new") ||
        contains(lower, "operator delete") || leaf == "free") {
        return LeafCategory::Memory;
    }
    if (contains(lower, "atomic") || contains(lower, "mutex") ||
        contains(lower, "spin") || contains(lower, "compare_exchange")) {
        return LeafCategory::Synchronization;
    }
    if (contains(lower, "std::") || contains(lower, "operator") ||
        contains(lower, "__gnu_cxx")) {
        return LeafCategory::CLibraries;
    }
    return LeafCategory::Miscellaneous;
}

std::optional<MemoryLeaf>
LeafTagger::memoryLeaf(const std::string &leaf) const
{
    const std::string lower = toLower(leaf);
    if (contains(lower, "memcpy"))
        return MemoryLeaf::Copy;
    if (contains(lower, "memmove"))
        return MemoryLeaf::Move;
    if (contains(lower, "memset"))
        return MemoryLeaf::Set;
    if (contains(lower, "memcmp"))
        return MemoryLeaf::Compare;
    if (contains(lower, "tc_free") || contains(lower, "cfree") ||
        contains(lower, "operator delete") || leaf == "free") {
        return MemoryLeaf::Free;
    }
    if (contains(lower, "malloc") || contains(lower, "calloc") ||
        contains(lower, "operator new")) {
        return MemoryLeaf::Allocation;
    }
    return std::nullopt;
}

std::optional<KernelLeaf>
LeafTagger::kernelLeaf(const std::string &leaf) const
{
    const std::string lower = toLower(leaf);
    if (contains(lower, "finish_task_switch") ||
        contains(lower, "__schedule")) {
        return KernelLeaf::Scheduler;
    }
    if (contains(lower, "ep_poll"))
        return KernelLeaf::EventHandling;
    if (contains(lower, "tcp_") || contains(lower, "net_rx"))
        return KernelLeaf::Network;
    if (contains(lower, "futex"))
        return KernelLeaf::Synchronization;
    if (contains(lower, "clear_page"))
        return KernelLeaf::MemoryManagement;
    if (contains(lower, "do_syscall"))
        return KernelLeaf::Miscellaneous;
    return std::nullopt;
}

std::optional<SyncLeaf>
LeafTagger::syncLeaf(const std::string &leaf) const
{
    const std::string lower = toLower(leaf);
    if (contains(lower, "compare_exchange"))
        return SyncLeaf::CompareExchangeSwap;
    if (contains(lower, "atomic"))
        return SyncLeaf::CppAtomics;
    if (contains(lower, "mutex"))
        return SyncLeaf::Mutex;
    if (contains(lower, "spin"))
        return SyncLeaf::SpinLock;
    return std::nullopt;
}

std::optional<ClibLeaf>
LeafTagger::clibLeaf(const std::string &leaf) const
{
    const std::string lower = toLower(leaf);
    if (contains(lower, "std::sort") || contains(lower, "std::find") ||
        contains(lower, "std::accumulate")) {
        return ClibLeaf::StdAlgorithms;
    }
    if (contains(lower, "::~") || contains(lower, "construct"))
        return ClibLeaf::ConstructorsDestructors;
    if (contains(lower, "std::string") || contains(lower, "basic_string"))
        return ClibLeaf::Strings;
    if (contains(lower, "unordered_map") || contains(lower, "hashtable"))
        return ClibLeaf::HashTables;
    if (contains(lower, "std::vector"))
        return ClibLeaf::Vectors;
    if (contains(lower, "std::map") || contains(lower, "_rb_tree"))
        return ClibLeaf::Trees;
    if (contains(lower, "operator=") || contains(lower, "operator<") ||
        contains(lower, "operator==")) {
        return ClibLeaf::OperatorOverride;
    }
    if (contains(lower, "std::") || contains(lower, "__gnu_cxx"))
        return ClibLeaf::Miscellaneous;
    return std::nullopt;
}

std::optional<Functionality>
FunctionalityTagger::marker(const std::string &frame) const
{
    const std::string lower = toLower(frame);
    if (contains(lower, "threadpoolexecutor") ||
        contains(lower, "thread_pool")) {
        return Functionality::ThreadPoolManagement;
    }
    if (contains(lower, "sslsocket") ||
        contains(lower, "asyncsocket")) {
        return Functionality::SecureInsecureIO;
    }
    if (contains(lower, "io::prepare") ||
        contains(lower, "io::postprocess")) {
        return Functionality::IOPrePostProcessing;
    }
    if (contains(lower, "thrift::"))
        return Functionality::Serialization;
    if (contains(lower, "features::extract"))
        return Functionality::FeatureExtraction;
    if (contains(lower, "inference::") ||
        contains(lower, "ranking::")) {
        return Functionality::PredictionRanking;
    }
    if (contains(lower, "log::append") ||
        contains(lower, "log::read") ||
        contains(lower, "log::update")) {
        return Functionality::Logging;
    }
    if (contains(lower, "compress::"))
        return Functionality::Compression;
    if (contains(lower, "app::"))
        return Functionality::ApplicationLogic;
    if (contains(lower, "misc::"))
        return Functionality::Miscellaneous;
    return std::nullopt;
}

Functionality
FunctionalityTagger::tag(const CallTrace &trace) const
{
    for (const std::string &frame : trace.frames) {
        if (auto m = marker(frame))
            return *m;
    }
    return Functionality::Miscellaneous;
}

} // namespace accel::profiling
