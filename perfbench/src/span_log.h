/**
 * @file
 * In-memory span recorder for the traced run: one span around each of
 * the benchmark's calls into a simulator layer (name, start, end,
 * parent), written out as JSON when the run ends. A disabled log
 * records nothing, so untraced runs pay one branch per call.
 */

#ifndef APC_PERFBENCH_SPAN_LOG_H
#define APC_PERFBENCH_SPAN_LOG_H

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "metric_math.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** RAII span; nests under the innermost open span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name) : log_(log)
        {
            if (!log_.enabled_)
                return;
            id_ = static_cast<int>(log_.spans_.size());
            log_.spans_.push_back({name, log_.now(), 0.0, log_.open_});
            log_.open_ = id_;
        }
        ~Scope()
        {
            if (id_ < 0)
                return;
            Span &s = log_.spans_[static_cast<std::size_t>(id_)];
            s.end = log_.now();
            log_.open_ = s.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int id_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Write {"spans": [...]} with self times. @return false on IO
     *  failure. */
    bool
    writeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::vector<double> self = selfTimes(spans_);
        std::fprintf(f, "{\"unit\": \"s\", \"spans\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", "
                         "\"start\": %.9f, \"end\": %.9f, "
                         "\"parent\": %d, \"self\": %.9f}%s\n",
                         i, s.name.c_str(), s.start, s.end, s.parent,
                         self[i], i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        const bool ok = !std::ferror(f);
        return std::fclose(f) == 0 && ok;
    }

  private:
    double now() const { return secondsBetween(t0_, Clock::now()); }

    bool enabled_;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

} // namespace perfbench

#endif // APC_PERFBENCH_SPAN_LOG_H
