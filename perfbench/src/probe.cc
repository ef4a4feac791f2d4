#include "probe.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>

namespace {

// Constant-initialised, so operator new can touch them before main and
// on any thread without a TLS guard.
thread_local std::uint64_t tl_allocs = 0;
thread_local bool tl_armed = false;

void *
countedAlloc(std::size_t size)
{
    if (tl_armed)
        ++tl_allocs;
    if (size == 0)
        size = 1;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (tl_armed)
        ++tl_allocs;
    std::size_t a = static_cast<std::size_t>(align);
    if (a < sizeof(void *))
        a = sizeof(void *);
    std::size_t rounded = (size + a - 1) / a * a;
    if (rounded == 0)
        rounded = a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Array and nothrow forms in libstdc++ forward to these two, so every
// heap allocation made through new is counted exactly once.
void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench {

std::uint64_t
allocCount()
{
    return tl_allocs;
}

bool
armAllocCounter(bool armed)
{
    bool was = tl_armed;
    tl_armed = armed;
    return was;
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Scope::Scope(const char *name)
{
    Tracer &t = instance();
    if (!t.enabled_)
        return;
    // The recorder's own growth is not the traced layer's allocation.
    bool armed = armAllocCounter(false);
    index_ = static_cast<std::int32_t>(t.spans_.size());
    t.spans_.push_back(Span{name, 0, 0, t.open_, t.op_, 0});
    t.open_ = index_;
    armAllocCounter(armed);
    allocStart_ = allocCount();
    t.spans_[index_].startNs = nowNs();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    std::int64_t end = nowNs();
    Tracer &t = instance();
    Span &s = t.spans_[index_];
    s.endNs = end;
    s.allocs = allocCount() - allocStart_;
    t.open_ = s.parent;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::vector<double> childNs(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[s.parent] += static_cast<double>(s.endNs - s.startNs);
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        SpanTotals &t = out[s.name];
        double dur = static_cast<double>(s.endNs - s.startNs);
        ++t.count;
        t.totalNs += dur;
        t.selfNs += dur - childNs[i];
        t.allocs += s.allocs;
    }
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("perfbench: cannot write " + path);
    std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": "
                      "\"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                      "\"dur\": %.3f, \"args\": {\"op\": %llu, "
                      "\"span\": %zu, \"parent\": %d, \"allocs\": %llu}}",
                      i == 0 ? "" : ",\n", s.name,
                      static_cast<double>(s.startNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3,
                      static_cast<unsigned long long>(s.op), i, s.parent,
                      static_cast<unsigned long long>(s.allocs));
        out << buf;
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("perfbench: failed writing " + path);
}

} // namespace perfbench
