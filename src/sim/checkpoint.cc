#include "sim/checkpoint.hh"

#include <istream>
#include <ostream>
#include <sstream>

#include "support/artifact_io.hh"
#include "support/logging.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"

namespace yasim {

namespace {

/** Inner frame magic for standalone checkpoint files. */
constexpr const char *kCheckpointMagic = "yasim-ckpt";

template <typename T>
void
putRaw(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
bool
getRaw(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    return is.good();
}

} // namespace

Checkpoint
Checkpoint::atPosition(uint64_t icount)
{
    Checkpoint cp;
    cp.icount = icount;
    return cp;
}

void
Checkpoint::attachUarch(const MemoryHierarchy &mem,
                        const CombinedPredictor &bp, const std::string &key)
{
    std::ostringstream os;
    mem.serializeWarmState(os);
    bp.serializeWarmState(os);
    warmBlob = os.str();
    warmKey = key;
}

bool
Checkpoint::restoreUarch(MemoryHierarchy &mem, CombinedPredictor &bp,
                         const std::string &key) const
{
    if (warmBlob.empty() || key != warmKey)
        return false;
    std::istringstream is(warmBlob);
    if (!mem.deserializeWarmState(is) || !bp.deserializeWarmState(is))
        return false;
    // Trailing bytes mean the blob was produced by a different layout
    // that happened to parse; refuse it.
    return is.peek() == std::istringstream::traits_type::eof();
}

// yasim-lint: serialized(checkpoint)
void
Checkpoint::writeBinary(std::ostream &os) const
{
    putRaw(os, kCheckpointFormatVersion);
    putRaw(os, icount);
    putRaw(os, static_cast<uint8_t>(hasUarch() ? 1 : 0));
    if (hasUarch()) {
        putRaw(os, static_cast<uint32_t>(warmKey.size()));
        os.write(warmKey.data(),
                 static_cast<std::streamsize>(warmKey.size()));
        putRaw(os, static_cast<uint64_t>(warmBlob.size()));
        os.write(warmBlob.data(),
                 static_cast<std::streamsize>(warmBlob.size()));
    }
}

// yasim-lint: serialized(checkpoint)
bool
Checkpoint::readBinary(std::istream &is, Checkpoint &out)
{
    uint32_t version = 0;
    if (!getRaw(is, version) || version != kCheckpointFormatVersion)
        return false;
    if (!getRaw(is, out.icount))
        return false;
    uint8_t has_uarch = 0;
    if (!getRaw(is, has_uarch))
        return false;
    out.warmKey.clear();
    out.warmBlob.clear();
    if (has_uarch != 0) {
        uint32_t key_len = 0;
        uint64_t blob_len = 0;
        if (!getRaw(is, key_len) || key_len > 4096)
            return false;
        out.warmKey.resize(key_len);
        is.read(out.warmKey.data(),
                static_cast<std::streamsize>(key_len));
        if (!is.good())
            return false;
        // A warm summary is bounded by the largest configured tables;
        // 256 MB is orders of magnitude above any real geometry.
        if (!getRaw(is, blob_len) || blob_len > (256ULL << 20))
            return false;
        out.warmBlob.resize(blob_len);
        is.read(out.warmBlob.data(),
                static_cast<std::streamsize>(blob_len));
        if (!is.good())
            return false;
    }
    return true;
}

// yasim-lint: serialized(checkpoint)
bool
Checkpoint::saveFile(const std::string &path) const
{
    std::ostringstream payload;
    writeBinary(payload);
    ArtifactWriteResult wrote =
        writeArtifact(path, kCheckpointMagic, kCheckpointFormatVersion,
                      payload.str());
    if (!wrote.ok)
        warn("cannot write checkpoint file '%s': %s", path.c_str(),
             wrote.error.c_str());
    return wrote.ok;
}

// yasim-lint: serialized(checkpoint)
bool
Checkpoint::loadFile(const std::string &path, Checkpoint &out)
{
    ArtifactReadResult read =
        readArtifact(path, kCheckpointMagic, kCheckpointFormatVersion);
    if (read.status == ArtifactStatus::Missing)
        return false;
    if (read.status != ArtifactStatus::Ok) {
        warn("checkpoint file '%s' unusable (%s)", path.c_str(),
             read.error.c_str());
        return false;
    }
    std::istringstream payload(read.payload);
    if (!readBinary(payload, out) ||
        payload.peek() != std::istringstream::traits_type::eof()) {
        // Frame verified but the payload did not parse cleanly (or
        // carries trailing bytes): quarantine so the next lookup
        // regenerates instead of re-tripping here.
        quarantineArtifact(path);
        warn("checkpoint file '%s' failed payload verification; "
             "quarantined",
             path.c_str());
        return false;
    }
    return true;
}

} // namespace yasim
