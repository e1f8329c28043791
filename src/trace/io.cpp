#include "trace/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace pcap::trace {

namespace {

constexpr char kTextMagic[] = "# pcap-trace v1";
constexpr char kBinaryMagic[4] = {'P', 'C', 'T', 'B'};
constexpr std::uint32_t kBinaryVersion = 1;

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

void
putString(std::ostream &os, const std::string &text)
{
    putLe<std::uint32_t>(os,
                         static_cast<std::uint32_t>(text.size()));
    os.write(text.data(),
             static_cast<std::streamsize>(text.size()));
}

bool
getString(std::istream &is, std::string &out)
{
    std::uint32_t length = 0;
    if (!getLe(is, length) || length > (1u << 20))
        return false;
    out.assign(length, '\0');
    return length == 0 ||
           static_cast<bool>(is.read(out.data(), length));
}

namespace {

/** On-wire size of one DiskAccess record (fixed LE layout). */
constexpr std::size_t kAccessRecordBytes = 8 + 4 + 4 + 4 + 4 + 1 + 4;

template <typename T>
void
packLe(unsigned char *&p, T value)
{
    auto u = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        *p++ = static_cast<unsigned char>((u >> (8 * i)) & 0xff);
}

template <typename T>
void
unpackLe(const unsigned char *&p, T &value)
{
    std::uint64_t u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        u |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += sizeof(T);
    value = static_cast<T>(u);
}

} // namespace

void
writeDiskAccesses(const std::vector<DiskAccess> &accesses,
                  std::ostream &os)
{
    putLe<std::uint64_t>(os, accesses.size());
    // Pack all records into one buffer and write it in a single
    // call: a workload's access stream runs to hundreds of
    // thousands of records, and per-field stream writes dominate
    // cache store/load time otherwise.
    std::vector<unsigned char> buffer(accesses.size() *
                                      kAccessRecordBytes);
    unsigned char *p = buffer.data();
    for (const auto &access : accesses) {
        packLe<std::int64_t>(p, access.time);
        packLe<std::int32_t>(p, access.pid);
        packLe<std::uint32_t>(p, access.pc);
        packLe<std::int32_t>(p, access.fd);
        packLe<std::uint32_t>(p, access.file);
        packLe<std::uint8_t>(p, access.isWrite ? 1 : 0);
        packLe<std::uint32_t>(p, access.blocks);
    }
    os.write(reinterpret_cast<const char *>(buffer.data()),
             static_cast<std::streamsize>(buffer.size()));
}

std::string
readDiskAccesses(std::istream &is, std::vector<DiskAccess> &out)
{
    std::uint64_t count = 0;
    if (!getLe(is, count) || count > (1u << 26))
        return "bad access count";
    // The count is untrusted: read bounded chunks, so memory grows
    // with the bytes actually present rather than with the count.
    constexpr std::uint64_t kChunkRecords = 1u << 16;
    std::vector<unsigned char> buffer(
        std::min(count, kChunkRecords) * kAccessRecordBytes);
    out.clear();
    out.reserve(std::min(count, kChunkRecords));
    for (std::uint64_t first = 0; first < count;) {
        const std::uint64_t n = std::min(count - first, kChunkRecords);
        if (!is.read(reinterpret_cast<char *>(buffer.data()),
                     static_cast<std::streamsize>(n * kAccessRecordBytes)))
            return "truncated access records";
        out.resize(first + n);
        const unsigned char *p = buffer.data();
        for (std::uint64_t i = first; i < first + n; ++i) {
            DiskAccess &access = out[i];
            std::uint8_t is_write = 0;
            unpackLe<std::int64_t>(p, access.time);
            unpackLe<std::int32_t>(p, access.pid);
            unpackLe<std::uint32_t>(p, access.pc);
            unpackLe<std::int32_t>(p, access.fd);
            unpackLe<std::uint32_t>(p, access.file);
            unpackLe<std::uint8_t>(p, is_write);
            unpackLe<std::uint32_t>(p, access.blocks);
            if (is_write > 1)
                return "bad isWrite flag at access " + std::to_string(i);
            access.isWrite = is_write != 0;
        }
        first += n;
    }
    return {};
}

void
writeText(const Trace &trace, std::ostream &os)
{
    os << kTextMagic << " app=" << trace.app()
       << " execution=" << trace.execution() << '\n';
    for (const auto &event : trace.events()) {
        os << event.time << '\t' << event.pid << '\t'
           << eventTypeName(event.type) << '\t' << event.pc << '\t'
           << event.fd << '\t' << event.file << '\t' << event.offset
           << '\t' << event.size << '\n';
    }
}

std::string
readText(std::istream &is, Trace &out)
{
    std::string line;
    if (!std::getline(is, line))
        return "empty input";
    if (line.rfind(kTextMagic, 0) != 0)
        return "bad header: " + line;

    std::string app = "unknown";
    int execution = 0;
    {
        std::istringstream header(line.substr(std::strlen(kTextMagic)));
        std::string field;
        while (header >> field) {
            if (field.rfind("app=", 0) == 0)
                app = field.substr(4);
            else if (field.rfind("execution=", 0) == 0)
                execution = std::stoi(field.substr(10));
        }
    }
    out = Trace(app, execution);

    std::size_t line_number = 1;
    while (std::getline(is, line)) {
        ++line_number;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        TraceEvent event;
        std::string type_name;
        if (!(fields >> event.time >> event.pid >> type_name >>
              event.pc >> event.fd >> event.file >> event.offset >>
              event.size)) {
            return "line " + std::to_string(line_number) +
                   ": malformed event";
        }
        if (!parseEventType(type_name, event.type)) {
            return "line " + std::to_string(line_number) +
                   ": unknown event type '" + type_name + "'";
        }
        out.append(event);
    }
    return {};
}

void
writeBinary(const Trace &trace, std::ostream &os)
{
    os.write(kBinaryMagic, sizeof(kBinaryMagic));
    putLe<std::uint32_t>(os, kBinaryVersion);
    putLe<std::uint32_t>(os,
                         static_cast<std::uint32_t>(trace.app().size()));
    os.write(trace.app().data(),
             static_cast<std::streamsize>(trace.app().size()));
    putLe<std::uint32_t>(os,
                         static_cast<std::uint32_t>(trace.execution()));
    putLe<std::uint64_t>(os, trace.size());
    for (const auto &event : trace.events()) {
        putLe<std::int64_t>(os, event.time);
        putLe<std::int32_t>(os, event.pid);
        putLe<std::uint8_t>(os, static_cast<std::uint8_t>(event.type));
        putLe<std::uint32_t>(os, event.pc);
        putLe<std::int32_t>(os, event.fd);
        putLe<std::uint32_t>(os, event.file);
        putLe<std::uint64_t>(os, event.offset);
        putLe<std::uint32_t>(os, event.size);
    }
}

std::string
readBinary(std::istream &is, Trace &out)
{
    char magic[4];
    if (!is.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
        return "bad magic";
    }
    std::uint32_t version = 0;
    if (!getLe(is, version) || version != kBinaryVersion)
        return "unsupported version";

    std::uint32_t name_length = 0;
    if (!getLe(is, name_length) || name_length > 4096)
        return "bad app-name length";
    std::string app(name_length, '\0');
    if (!is.read(app.data(), name_length))
        return "truncated app name";

    std::uint32_t execution = 0;
    std::uint64_t count = 0;
    if (!getLe(is, execution) || !getLe(is, count))
        return "truncated header";

    out = Trace(app, static_cast<int>(execution));
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceEvent event;
        std::uint8_t type = 0;
        if (!getLe(is, event.time) || !getLe(is, event.pid) ||
            !getLe(is, type) || !getLe(is, event.pc) ||
            !getLe(is, event.fd) || !getLe(is, event.file) ||
            !getLe(is, event.offset) || !getLe(is, event.size)) {
            return "truncated at event " + std::to_string(i);
        }
        if (type > static_cast<std::uint8_t>(EventType::Exit))
            return "bad event type at event " + std::to_string(i);
        event.type = static_cast<EventType>(type);
        out.append(event);
    }
    return {};
}

std::string
saveTraceFile(const Trace &trace, const std::string &path)
{
    const bool binary = endsWith(path, ".tracebin");
    std::ofstream os(path, binary ? std::ios::binary : std::ios::out);
    if (!os)
        return "cannot open " + path + " for writing";
    if (binary)
        writeBinary(trace, os);
    else
        writeText(trace, os);
    return os ? std::string{} : "write error on " + path;
}

std::string
loadTraceFile(const std::string &path, Trace &out)
{
    const bool binary = endsWith(path, ".tracebin");
    std::ifstream is(path, binary ? std::ios::binary : std::ios::in);
    if (!is)
        return "cannot open " + path;
    return binary ? readBinary(is, out) : readText(is, out);
}

} // namespace pcap::trace
