#include "workload/app_model.hpp"

#include <array>

#include "workload/apps.hpp"

namespace pcap::workload {

std::unique_ptr<AppModel>
makeApp(const std::string &name)
{
    if (name == "mozilla")
        return makeMozilla();
    if (name == "writer")
        return makeWriter();
    if (name == "impress")
        return makeImpress();
    if (name == "xemacs")
        return makeXemacs();
    if (name == "nedit")
        return makeNedit();
    if (name == "mplayer")
        return makeMplayer();
    return nullptr;
}

std::vector<std::unique_ptr<AppModel>>
makeStandardApps()
{
    std::vector<std::unique_ptr<AppModel>> apps;
    for (const std::string &name : standardAppNames())
        apps.push_back(makeApp(name));
    return apps;
}

std::vector<std::string>
standardAppNames()
{
    return {"mozilla", "writer", "impress", "xemacs", "nedit",
            "mplayer"};
}

void
recordTraceMetrics(const trace::Trace &trace,
                   const obs::ScopedMetrics &scope)
{
    // Tally locally and resolve each type's series once per trace:
    // a registry lookup per event would serialise parallel
    // generation on the registry lock.
    constexpr std::size_t kTypes =
        static_cast<std::size_t>(trace::EventType::Exit) + 1;
    std::array<std::uint64_t, kTypes> byType{};
    for (const trace::TraceEvent &event : trace.events())
        ++byType[static_cast<std::size_t>(event.type)];

    scope.counter("pcap_workload_generated_traces_total").inc();
    scope.counter("pcap_workload_generated_span_us_total")
        .inc(static_cast<std::uint64_t>(trace.endTime() -
                                        trace.startTime()));
    for (std::size_t type = 0; type < kTypes; ++type) {
        if (!byType[type])
            continue;
        scope
            .counter("pcap_workload_generated_events_total",
                     {{"type", trace::eventTypeName(
                                   static_cast<trace::EventType>(
                                       type))}})
            .inc(byType[type]);
    }
}

} // namespace pcap::workload
