/**
 * @file
 * Warm-state checkpoints: a dynamic position plus an optional
 * warmed-uarch summary.
 *
 * Architectural state never needs a checkpoint here: it lives in the
 * recorded trace, and a TraceReplayer seeks to any position in O(1).
 * What a seek cannot restore is microarchitectural — the cache tag
 * arrays, TLB entries, and branch-predictor tables functional warming
 * produced up to that position. A Checkpoint carries exactly that
 * summary (uarch/warm_state.hh), keyed by a caller-supplied identity
 * string, so repeated checkpoint-sharded runs skip re-warming their
 * lead-ins (docs/perf.md).
 */

#ifndef YASIM_SIM_CHECKPOINT_HH
#define YASIM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <iosfwd>
#include <string>

namespace yasim {

class MemoryHierarchy;
class CombinedPredictor;

/**
 * Binary layout version of Checkpoint::writeBinary. Bumped whenever
 * the serialized field set or ordering changes; readBinary rejects
 * mismatches so stale checkpoint files can never be misparsed.
 * Version 2: version marker prepended, memory words emitted in
 * ascending address order (deterministic across standard libraries).
 * Version 3: optional warmed-uarch summary trailer (key + composite
 * blob, see uarch/warm_state.hh). Version 4: the architectural slice
 * (pc, registers, memory words) is gone; a checkpoint is a position
 * plus the optional summary.
 */
// yasim-lint: version(checkpoint)
constexpr uint32_t kCheckpointFormatVersion = 4;

/** A dynamic position and the warm state reached there. */
class Checkpoint
{
  public:
    /** An empty checkpoint at dynamic position @p icount. */
    static Checkpoint atPosition(uint64_t icount);

    /**
     * Attach the warmed-uarch summary of @p mem and @p bp under
     * identity @p key. The key must encode everything the warm state
     * depends on (program content, warm span, machine configuration,
     * format versions); restoreUarch refuses a key mismatch.
     */
    void attachUarch(const MemoryHierarchy &mem,
                     const CombinedPredictor &bp, const std::string &key);

    /** True when a warmed-uarch summary is attached. */
    bool hasUarch() const { return !warmBlob.empty(); }

    /** Identity key of the attached summary ("" when none). */
    const std::string &uarchKey() const { return warmKey; }

    /**
     * Restore the attached warmed-uarch summary into @p mem and @p bp.
     * @return false when no summary is attached, @p key does not
     * match, or the blob fails structural validation — in which case
     * @p mem / @p bp may be partially mutated and must be discarded
     * (rebuild the core) or reset before use.
     */
    bool restoreUarch(MemoryHierarchy &mem, CombinedPredictor &bp,
                      const std::string &key) const;

    /** Dynamic instruction position of this checkpoint. */
    uint64_t instruction() const { return icount; }

    /**
     * Serialize to @p os as native-endian binary. The stream opens
     * with kCheckpointFormatVersion.
     */
    void writeBinary(std::ostream &os) const;

    /**
     * Deserialize one checkpoint written by writeBinary into @p out.
     * @return false on a short or malformed stream or a
     *         format-version mismatch.
     */
    static bool readBinary(std::istream &is, Checkpoint &out);

    /**
     * Persist this checkpoint as a standalone file: the writeBinary
     * stream framed, checksummed, and atomically published through
     * support/artifact_io. @return false when the file could not be
     * written (a warning is emitted; never throws).
     */
    bool saveFile(const std::string &path) const;

    /**
     * Load a checkpoint persisted by saveFile. A verification failure
     * — bad frame, bad checksum, truncated or over-long payload —
     * quarantines the file to "<path>.corrupt" and returns false, so
     * callers fall back to regeneration.
     */
    static bool loadFile(const std::string &path, Checkpoint &out);

  private:
    Checkpoint() = default;

    uint64_t icount = 0;
    /** Identity key of the optional warmed-uarch summary ("" = none). */
    std::string warmKey;
    /** Composite warm-state blob (uarch/warm_state.hh layout). */
    std::string warmBlob;
};

} // namespace yasim

#endif // YASIM_SIM_CHECKPOINT_HH
