#include "train/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/fault.h"
#include "common/io_file.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace mgbr {
namespace {

constexpr char kMagicV2[8] = {'M', 'G', 'B', 'R', 'C', 'K', 'P', '2'};
constexpr uint32_t kFormatVersion = 2;
// Far above any conceivable section count; rejects garbage headers
// before they drive an allocation.
constexpr uint32_t kMaxSections = 64;

constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr uint32_t kTagConfig = FourCc('C', 'F', 'G', '1');
constexpr uint32_t kTagParams = FourCc('P', 'A', 'R', '1');
constexpr uint32_t kTagAdam = FourCc('A', 'D', 'M', '1');
constexpr uint32_t kTagRng = FourCc('R', 'N', 'G', '1');
constexpr uint32_t kTagTrainer = FourCc('T', 'R', 'N', '1');

Counter* SavesCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter("checkpoint.saves");
  return c;
}

Counter* LoadsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter("checkpoint.loads");
  return c;
}

Counter* CorruptCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("checkpoint.corrupt_detected");
  return c;
}

Counter* FallbacksCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("checkpoint.fallbacks");
  return c;
}

// Corruption — as opposed to a structurally valid file that belongs to
// a different model — is surfaced as IoError and counted.
Status Corrupt(const std::string& path, const std::string& detail) {
  MGBR_COUNTER_ADD(CorruptCounter(), 1);
  return Status::IoError(StrCat("corrupt checkpoint ", path, ": ", detail));
}

// ---------------------------------------------------------------------------
// Little serialization helpers over an in-memory buffer. Everything is
// assembled (and parsed) in memory so the file itself is produced by a
// single io::File::Write — one fault-injection "write op" per save.
// ---------------------------------------------------------------------------

template <typename T>
void AppendPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable<T>::value, "POD only");
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void AppendBytes(std::string* out, const void* data, size_t n) {
  out->append(reinterpret_cast<const char*>(data), n);
}

void AppendSection(std::string* out, uint32_t tag,
                   const std::string& payload) {
  AppendPod(out, tag);
  AppendPod(out, Crc32(payload.data(), payload.size()));
  AppendPod(out, static_cast<uint64_t>(payload.size()));
  out->append(payload);
}

/// Bounds-checked forward-only reader over a byte buffer.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool ReadPod(T* out) {
    static_assert(std::is_trivially_copyable<T>::value, "POD only");
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(void* out, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool Skip(size_t n) {
    if (size_ - pos_ < n) return false;
    pos_ += n;
    return true;
  }

  const char* head() const { return data_ + pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

struct Section {
  uint32_t tag = 0;
  const char* data = nullptr;
  size_t size = 0;
};

const Section* FindSection(const std::vector<Section>& sections,
                           uint32_t tag) {
  for (const Section& s : sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Section payload builders.
// ---------------------------------------------------------------------------

Status BuildParamsPayload(const std::vector<Var>& params, std::string* out) {
  AppendPod(out, static_cast<uint64_t>(params.size()));
  for (const Var& p : params) {
    if (!p.defined()) {
      return Status::InvalidArgument("undefined Var in parameter list");
    }
    AppendPod(out, p.value().rows());
    AppendPod(out, p.value().cols());
    AppendBytes(out, p.value().data(),
                static_cast<size_t>(p.value().numel()) * sizeof(float));
  }
  return Status::OK();
}

void BuildAdamPayload(const Adam& optimizer, std::string* out) {
  AppendPod(out, optimizer.step_count());
  AppendPod(out, optimizer.learning_rate());
  const std::vector<Tensor>& m = optimizer.first_moments();
  const std::vector<Tensor>& v = optimizer.second_moments();
  AppendPod(out, static_cast<uint64_t>(m.size()));
  for (size_t i = 0; i < m.size(); ++i) {
    AppendPod(out, m[i].rows());
    AppendPod(out, m[i].cols());
    AppendBytes(out, m[i].data(),
                static_cast<size_t>(m[i].numel()) * sizeof(float));
    AppendBytes(out, v[i].data(),
                static_cast<size_t>(v[i].numel()) * sizeof(float));
  }
}

void AppendRngState(const RngState& state, std::string* out) {
  for (uint64_t word : state.s) AppendPod(out, word);
  AppendPod(out, static_cast<uint8_t>(state.has_cached_gaussian ? 1 : 0));
  AppendPod(out, state.cached_gaussian);
}

void BuildRngPayload(const Rng& rng, const std::vector<Rng>* extra_streams,
                     std::string* out) {
  const uint64_t n_extra =
      extra_streams != nullptr ? extra_streams->size() : 0;
  AppendPod(out, static_cast<uint64_t>(1) + n_extra);  // n_streams
  AppendRngState(rng.state(), out);
  for (uint64_t i = 0; i < n_extra; ++i) {
    AppendRngState((*extra_streams)[i].state(), out);
  }
}

void BuildTrainerPayload(const TrainerState& trainer, std::string* out) {
  AppendPod(out, trainer.epochs_run);
  AppendPod(out, trainer.best_metric);
  AppendPod(out, trainer.best_epoch);
  AppendPod(out, trainer.since_best);
}

// ---------------------------------------------------------------------------
// Section payload parsers. Each stages into locals; nothing in the
// request is touched until every requested section has validated.
// ---------------------------------------------------------------------------

/// Reads one `rows x cols` tensor header + `blocks` consecutive data
/// planes of rows*cols floats each (params use 1 block, Adam m+v use 2).
Status ReadTensorBlocks(Cursor* cursor, const std::string& path, size_t index,
                        const Tensor& like, int blocks,
                        std::vector<Tensor*> out) {
  int64_t rows = 0;
  int64_t cols = 0;
  if (!cursor->ReadPod(&rows) || !cursor->ReadPod(&cols)) {
    return Corrupt(path, StrCat("truncated tensor header at index ", index));
  }
  if (rows <= 0 || cols <= 0 || rows > (int64_t{1} << 30) ||
      cols > (int64_t{1} << 30)) {
    return Corrupt(path, StrCat("impossible tensor shape ", rows, "x", cols,
                                " at index ", index));
  }
  const uint64_t numel =
      static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols);
  if (numel * sizeof(float) * static_cast<uint64_t>(blocks) >
      cursor->remaining()) {
    return Corrupt(path, StrCat("tensor data overruns payload at index ",
                                index));
  }
  if (rows != like.rows() || cols != like.cols()) {
    return Status::InvalidArgument(
        StrCat("shape mismatch at parameter ", index, ": file ", rows, "x",
               cols, ", model ", like.rows(), "x", like.cols()));
  }
  for (Tensor* t : out) {
    *t = Tensor(rows, cols);
    cursor->ReadBytes(t->data(), static_cast<size_t>(numel) * sizeof(float));
  }
  return Status::OK();
}

Status ParseParamsSection(const Section& section, const std::string& path,
                          const std::vector<Var>& params,
                          std::vector<Tensor>* staged) {
  Cursor cursor(section.data, section.size);
  uint64_t count = 0;
  if (!cursor.ReadPod(&count)) {
    return Corrupt(path, "truncated params section");
  }
  if (count != params.size()) {
    return Status::InvalidArgument(
        StrCat("parameter count mismatch: file has ", count, ", model has ",
               params.size()));
  }
  staged->reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor t;
    MGBR_RETURN_NOT_OK(
        ReadTensorBlocks(&cursor, path, i, params[i].value(), 1, {&t}));
    staged->push_back(std::move(t));
  }
  if (!cursor.at_end()) {
    return Corrupt(path, "trailing bytes in params section");
  }
  return Status::OK();
}

struct StagedAdam {
  int64_t t = 0;
  float lr = 0.0f;
  std::vector<Tensor> m;
  std::vector<Tensor> v;
};

Status ParseAdamSection(const Section& section, const std::string& path,
                        const std::vector<Var>& params, StagedAdam* staged) {
  Cursor cursor(section.data, section.size);
  uint64_t count = 0;
  if (!cursor.ReadPod(&staged->t) || !cursor.ReadPod(&staged->lr) ||
      !cursor.ReadPod(&count)) {
    return Corrupt(path, "truncated optimizer section");
  }
  if (staged->t < 0) {
    return Corrupt(path, StrCat("negative Adam step count ", staged->t));
  }
  if (count != params.size()) {
    return Status::InvalidArgument(
        StrCat("optimizer moment count mismatch: file has ", count,
               ", model has ", params.size()));
  }
  staged->m.reserve(count);
  staged->v.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Tensor m;
    Tensor v;
    MGBR_RETURN_NOT_OK(
        ReadTensorBlocks(&cursor, path, i, params[i].value(), 2, {&m, &v}));
    staged->m.push_back(std::move(m));
    staged->v.push_back(std::move(v));
  }
  if (!cursor.at_end()) {
    return Corrupt(path, "trailing bytes in optimizer section");
  }
  return Status::OK();
}

Status ReadRngState(Cursor* cursor, const std::string& path,
                    RngState* staged) {
  uint8_t has_cached = 0;
  for (uint64_t& word : staged->s) {
    if (!cursor->ReadPod(&word)) return Corrupt(path, "truncated RNG state");
  }
  if (!cursor->ReadPod(&has_cached) ||
      !cursor->ReadPod(&staged->cached_gaussian)) {
    return Corrupt(path, "truncated RNG state");
  }
  staged->has_cached_gaussian = has_cached != 0;
  return Status::OK();
}

/// The first stream is the main Rng; `expected_extra` more follow (the
/// trainer's persistent sampler streams). A count mismatch is an
/// InvalidArgument, not corruption: the file is fine, the caller's
/// configuration (e.g. TrainConfig::sampler_streams) disagrees with it.
Status ParseRngSection(const Section& section, const std::string& path,
                       size_t expected_extra, RngState* staged,
                       std::vector<RngState>* staged_extra) {
  Cursor cursor(section.data, section.size);
  uint64_t n_streams = 0;
  if (!cursor.ReadPod(&n_streams)) {
    return Corrupt(path, "truncated RNG section");
  }
  if (n_streams != 1 + expected_extra) {
    return Status::InvalidArgument(
        StrCat("checkpoint has ", n_streams, " RNG streams, expected ",
               1 + expected_extra));
  }
  MGBR_RETURN_NOT_OK(ReadRngState(&cursor, path, staged));
  staged_extra->resize(expected_extra);
  for (size_t i = 0; i < expected_extra; ++i) {
    MGBR_RETURN_NOT_OK(ReadRngState(&cursor, path, &(*staged_extra)[i]));
  }
  if (!cursor.at_end()) {
    return Corrupt(path, "trailing bytes in RNG section");
  }
  return Status::OK();
}

Status ParseTrainerSection(const Section& section, const std::string& path,
                           TrainerState* staged) {
  Cursor cursor(section.data, section.size);
  if (!cursor.ReadPod(&staged->epochs_run) ||
      !cursor.ReadPod(&staged->best_metric) ||
      !cursor.ReadPod(&staged->best_epoch) ||
      !cursor.ReadPod(&staged->since_best) || !cursor.at_end()) {
    return Corrupt(path, "malformed trainer-state section");
  }
  if (staged->epochs_run < 0) {
    return Corrupt(path, StrCat("negative epoch count ", staged->epochs_run));
  }
  return Status::OK();
}

constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".mgbr";
constexpr char kTempSuffix[] = ".tmp";

bool HasSuffix(const std::string& name, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

/// Parses "ckpt-NNNNNN.mgbr" -> NNNNNN; -1 for anything else.
int64_t EpochFromName(const std::string& name) {
  const size_t prefix = sizeof(kCheckpointPrefix) - 1;
  const size_t suffix = sizeof(kCheckpointSuffix) - 1;
  if (name.size() <= prefix + suffix) return -1;
  if (name.compare(0, prefix, kCheckpointPrefix) != 0) return -1;
  if (!HasSuffix(name, kCheckpointSuffix)) return -1;
  int64_t epoch = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    epoch = epoch * 10 + (name[i] - '0');
  }
  return epoch;
}

}  // namespace

Status SerializeCheckpoint(const CheckpointWriteRequest& request,
                           std::string* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("SerializeCheckpoint needs an output");
  }
  if (request.params == nullptr) {
    return Status::InvalidArgument("checkpoint write request needs params");
  }

  std::string body;
  uint32_t n_sections = 0;
  if (request.fingerprint != 0) {
    std::string payload;
    AppendPod(&payload, request.fingerprint);
    AppendSection(&body, kTagConfig, payload);
    ++n_sections;
  }
  {
    std::string payload;
    MGBR_RETURN_NOT_OK(BuildParamsPayload(*request.params, &payload));
    AppendSection(&body, kTagParams, payload);
    ++n_sections;
  }
  if (request.optimizer != nullptr) {
    std::string payload;
    BuildAdamPayload(*request.optimizer, &payload);
    AppendSection(&body, kTagAdam, payload);
    ++n_sections;
  }
  if (request.rng != nullptr) {
    std::string payload;
    BuildRngPayload(*request.rng, request.rng_streams, &payload);
    AppendSection(&body, kTagRng, payload);
    ++n_sections;
  }
  if (request.trainer != nullptr) {
    std::string payload;
    BuildTrainerPayload(*request.trainer, &payload);
    AppendSection(&body, kTagTrainer, payload);
    ++n_sections;
  }

  std::string& file_bytes = *out;
  file_bytes.clear();
  file_bytes.reserve(sizeof(kMagicV2) + 2 * sizeof(uint32_t) + body.size());
  AppendBytes(&file_bytes, kMagicV2, sizeof(kMagicV2));
  AppendPod(&file_bytes, kFormatVersion);
  AppendPod(&file_bytes, n_sections);
  file_bytes.append(body);
  return Status::OK();
}

Status WriteCheckpointBytes(const std::string& bytes,
                            const std::string& path) {
  // Write-temp -> fsync -> atomic-rename: a crash at any instant leaves
  // either the previous checkpoint or the new one under `path`, never a
  // torn mix.
  const std::string tmp_path = path + kTempSuffix;
  {
    MGBR_ASSIGN_OR_RETURN(io::File file, io::File::OpenForWrite(tmp_path));
    MGBR_RETURN_NOT_OK(file.Write(bytes.data(), bytes.size()));
    MGBR_RETURN_NOT_OK(file.Sync());
    MGBR_RETURN_NOT_OK(file.Close());
  }
  fault::KillPoint("checkpoint.pre_rename");
  MGBR_RETURN_NOT_OK(io::AtomicRename(tmp_path, path));
  fault::KillPoint("checkpoint.post_rename");
  MGBR_COUNTER_ADD(SavesCounter(), 1);
  return Status::OK();
}

Status SaveCheckpoint(const CheckpointWriteRequest& request,
                      const std::string& path) {
  MGBR_TRACE_SPAN("checkpoint.save", "checkpoint");
  std::string bytes;
  MGBR_RETURN_NOT_OK(SerializeCheckpoint(request, &bytes));
  return WriteCheckpointBytes(bytes, path);
}

Status LoadCheckpoint(const std::string& path,
                      const CheckpointReadRequest& request) {
  MGBR_TRACE_SPAN("checkpoint.load", "checkpoint");
  if (request.params == nullptr) {
    return Status::InvalidArgument("checkpoint read request needs params");
  }
  MGBR_ASSIGN_OR_RETURN(std::string bytes, io::ReadFileToString(path));

  if (bytes.size() < sizeof(kMagicV2) ||
      std::memcmp(bytes.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::InvalidArgument(StrCat("bad checkpoint magic in ", path));
  }

  // --- Section directory: every CRC verifies before any payload is
  // interpreted, so a flipped bit anywhere is caught up front.
  Cursor cursor(bytes.data(), bytes.size());
  cursor.Skip(sizeof(kMagicV2));
  uint32_t version = 0;
  uint32_t n_sections = 0;
  if (!cursor.ReadPod(&version) || !cursor.ReadPod(&n_sections)) {
    return Corrupt(path, "truncated header");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        StrCat("unsupported checkpoint version ", version, " in ", path));
  }
  if (n_sections == 0 || n_sections > kMaxSections) {
    return Corrupt(path, StrCat("implausible section count ", n_sections));
  }
  std::vector<Section> sections;
  sections.reserve(n_sections);
  for (uint32_t i = 0; i < n_sections; ++i) {
    uint32_t tag = 0;
    uint32_t crc = 0;
    uint64_t size = 0;
    if (!cursor.ReadPod(&tag) || !cursor.ReadPod(&crc) ||
        !cursor.ReadPod(&size)) {
      return Corrupt(path, StrCat("truncated section header ", i));
    }
    if (size > cursor.remaining()) {
      return Corrupt(path, StrCat("section ", i, " overruns the file (",
                                  size, " bytes declared, ",
                                  cursor.remaining(), " left)"));
    }
    Section section{tag, cursor.head(), static_cast<size_t>(size)};
    cursor.Skip(static_cast<size_t>(size));
    const uint32_t actual = Crc32(section.data, section.size);
    if (actual != crc) {
      return Corrupt(path, StrCat("CRC mismatch in section ", i, " (tag ",
                                  tag, "): stored ", crc, ", computed ",
                                  actual));
    }
    sections.push_back(section);
  }
  if (!cursor.at_end()) {
    return Corrupt(path, "trailing bytes after last section");
  }

  // --- Config fingerprint gate: reject a structurally valid checkpoint
  // that belongs to a differently configured model.
  if (request.expected_fingerprint != 0) {
    const Section* cfg = FindSection(sections, kTagConfig);
    if (cfg == nullptr) {
      return Status::NotFound(
          StrCat("checkpoint ", path, " has no config fingerprint"));
    }
    Cursor cfg_cursor(cfg->data, cfg->size);
    uint64_t fingerprint = 0;
    if (!cfg_cursor.ReadPod(&fingerprint) || !cfg_cursor.at_end()) {
      return Corrupt(path, "malformed config section");
    }
    if (fingerprint != request.expected_fingerprint) {
      return Status::InvalidArgument(
          StrCat("checkpoint ", path,
                 " was written by a differently configured model "
                 "(fingerprint mismatch)"));
    }
  }

  // --- Stage every requested section...
  const Section* par = FindSection(sections, kTagParams);
  if (par == nullptr) {
    return Status::NotFound(
        StrCat("checkpoint ", path, " has no parameter section"));
  }
  std::vector<Tensor> staged_params;
  MGBR_RETURN_NOT_OK(
      ParseParamsSection(*par, path, *request.params, &staged_params));

  StagedAdam staged_adam;
  if (request.optimizer != nullptr) {
    const Section* adm = FindSection(sections, kTagAdam);
    if (adm == nullptr) {
      return Status::NotFound(
          StrCat("checkpoint ", path, " has no optimizer section"));
    }
    MGBR_RETURN_NOT_OK(
        ParseAdamSection(*adm, path, *request.params, &staged_adam));
  }

  RngState staged_rng;
  std::vector<RngState> staged_rng_extra;
  if (request.rng != nullptr) {
    const Section* rng = FindSection(sections, kTagRng);
    if (rng == nullptr) {
      return Status::NotFound(
          StrCat("checkpoint ", path, " has no RNG section"));
    }
    const size_t expected_extra =
        request.rng_streams != nullptr ? request.rng_streams->size() : 0;
    MGBR_RETURN_NOT_OK(ParseRngSection(*rng, path, expected_extra,
                                       &staged_rng, &staged_rng_extra));
  }

  TrainerState staged_trainer;
  if (request.trainer != nullptr) {
    const Section* trn = FindSection(sections, kTagTrainer);
    if (trn == nullptr) {
      return Status::NotFound(
          StrCat("checkpoint ", path, " has no trainer-state section"));
    }
    MGBR_RETURN_NOT_OK(ParseTrainerSection(*trn, path, &staged_trainer));
  }

  // --- ...then commit all-or-nothing. RestoreState re-validates against
  // the optimizer's own parameter list and is itself atomic, so it goes
  // first; the remaining commits cannot fail.
  if (request.optimizer != nullptr) {
    MGBR_RETURN_NOT_OK(request.optimizer->RestoreState(
        staged_adam.t, staged_adam.lr, std::move(staged_adam.m),
        std::move(staged_adam.v)));
  }
  for (size_t i = 0; i < request.params->size(); ++i) {
    (*request.params)[i].mutable_value() = std::move(staged_params[i]);
  }
  if (request.rng != nullptr) {
    request.rng->set_state(staged_rng);
    if (request.rng_streams != nullptr) {
      for (size_t i = 0; i < staged_rng_extra.size(); ++i) {
        (*request.rng_streams)[i].set_state(staged_rng_extra[i]);
      }
    }
  }
  if (request.trainer != nullptr) *request.trainer = staged_trainer;
  MGBR_COUNTER_ADD(LoadsCounter(), 1);
  return Status::OK();
}

Status SaveParameters(const std::vector<Var>& params,
                      const std::string& path) {
  CheckpointWriteRequest request;
  request.params = &params;
  return SaveCheckpoint(request, path);
}

Status LoadParameters(const std::string& path, std::vector<Var>* params) {
  if (params == nullptr) {
    return Status::InvalidArgument("params must not be null");
  }
  CheckpointReadRequest request;
  request.params = params;
  return LoadCheckpoint(path, request);
}

// ---------------------------------------------------------------------------
// CheckpointManager.
// ---------------------------------------------------------------------------

CheckpointManager::CheckpointManager(std::string dir, int keep_last,
                                     bool async)
    : dir_(std::move(dir)),
      keep_last_(keep_last < 1 ? 1 : keep_last),
      async_(async) {}

CheckpointManager::~CheckpointManager() {
  const Status pending = WaitForPending();
  if (!pending.ok()) {
    MGBR_LOG_WARNING("checkpoint: async write failed (status uncollected "
                     "at destruction): ",
                     pending.ToString());
  }
}

std::string CheckpointManager::PathFor(int64_t epoch) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06lld%s", kCheckpointPrefix,
                static_cast<long long>(epoch), kCheckpointSuffix);
  return StrCat(dir_, "/", name);
}

std::vector<int64_t> CheckpointManager::ListEpochs() const {
  std::vector<int64_t> epochs;
  Result<std::vector<std::string>> entries = io::ListDir(dir_);
  if (!entries.ok()) return epochs;
  for (const std::string& name : entries.value()) {
    const int64_t epoch = EpochFromName(name);
    if (epoch >= 0) epochs.push_back(epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Status CheckpointManager::WriteAndRotate(const std::string& bytes,
                                         int64_t epoch) {
  MGBR_RETURN_NOT_OK(WriteCheckpointBytes(bytes, PathFor(epoch)));
  // Rotate: keep the newest keep_last_ checkpoints.
  std::vector<int64_t> epochs = ListEpochs();
  if (epochs.size() > static_cast<size_t>(keep_last_)) {
    const size_t n_prune = epochs.size() - static_cast<size_t>(keep_last_);
    for (size_t i = 0; i < n_prune; ++i) {
      MGBR_RETURN_NOT_OK(io::RemoveFile(PathFor(epochs[i])));
    }
  }
  return Status::OK();
}

Status CheckpointManager::WaitForPending() {
  if (!writer_.joinable()) return Status::OK();
  writer_.join();
  Status status = std::move(pending_status_);
  pending_status_ = Status::OK();
  return status;
}

Status CheckpointManager::Save(const CheckpointWriteRequest& request,
                               int64_t epoch) {
  MGBR_TRACE_SPAN("checkpoint.save", "checkpoint");
  // Only one write in flight: surface the previous async write's fate
  // before starting (or shadowing) the next one.
  MGBR_RETURN_NOT_OK(WaitForPending());
  MGBR_RETURN_NOT_OK(io::MakeDirs(dir_));
  // Sweep temp files left by a run that died mid-save: they never
  // became checkpoints and never will. Runs on the caller thread, so
  // it can never race the writer (which is joined above).
  Result<std::vector<std::string>> entries = io::ListDir(dir_);
  if (entries.ok()) {
    for (const std::string& name : entries.value()) {
      if (HasSuffix(name, kTempSuffix)) {
        MGBR_LOG_WARNING("checkpoint: removing stale temp file ", dir_, "/",
                         name);
        const Status removed = io::RemoveFile(StrCat(dir_, "/", name));
        (void)removed;  // stale-temp sweep is best-effort
      }
    }
  }
  // Serialize on the caller thread: the request's pointers capture live
  // training state that the train loop will mutate right after Save()
  // returns, so the snapshot must complete here. Only the immutable
  // byte image crosses the thread boundary.
  std::string bytes;
  MGBR_RETURN_NOT_OK(SerializeCheckpoint(request, &bytes));
  if (!async_) return WriteAndRotate(bytes, epoch);
  writer_ = std::thread([this, epoch, bytes = std::move(bytes)]() {
    pending_status_ = WriteAndRotate(bytes, epoch);
  });
  return Status::OK();
}

Status CheckpointManager::RestoreLatest(const CheckpointReadRequest& request,
                                        int64_t* epoch_out) {
  // An in-flight async write must land before the directory is scanned,
  // or the newest checkpoint would be invisible. A failed write is only
  // logged: older checkpoints may still restore.
  const Status pending = WaitForPending();
  if (!pending.ok()) {
    MGBR_LOG_WARNING("checkpoint: pending async write failed: ",
                     pending.ToString());
  }
  std::vector<int64_t> epochs = ListEpochs();
  bool fell_back = false;
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    const std::string path = PathFor(*it);
    const Status status = LoadCheckpoint(path, request);
    if (status.ok()) {
      if (fell_back) MGBR_COUNTER_ADD(FallbacksCounter(), 1);
      if (epoch_out != nullptr) *epoch_out = *it;
      return Status::OK();
    }
    MGBR_LOG_WARNING("checkpoint: skipping ", path, ": ", status.ToString());
    fell_back = true;
  }
  return Status::NotFound(
      StrCat("no loadable checkpoint in ", dir_, " (", epochs.size(),
             " candidate file(s) examined)"));
}

}  // namespace mgbr
