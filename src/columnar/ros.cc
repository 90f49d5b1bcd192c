#include "columnar/ros.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <set>
#include <utility>

#include "columnar/encoding.h"
#include "columnar/value_codec.h"
#include "common/codec.h"
#include "common/hash.h"
#include "obs/metrics.h"
#include "storage/object_store.h"

namespace eon {

namespace {

constexpr uint32_t kColumnFileMagic = 0xEC01F11E;

void UpdateRange(ValueRange* range, const Value& v) {
  if (v.is_null()) {
    range->has_null = true;
    return;
  }
  if (!range->valid) {
    range->valid = true;
    range->min = v;
    range->max = v;
    return;
  }
  if (v.Compare(range->min) < 0) range->min = v;
  if (v.Compare(range->max) > 0) range->max = v;
}

void PutRange(std::string* dst, const ValueRange& r) {
  dst->push_back(r.valid ? 1 : 0);
  dst->push_back(r.has_null ? 1 : 0);
  if (r.valid) {
    PutValue(dst, r.min);
    PutValue(dst, r.max);
  }
}

Status GetRange(Slice* in, DataType type, ValueRange* r) {
  if (in->size() < 2) return Status::Corruption("range underflow");
  r->valid = (*in)[0] != 0;
  r->has_null = (*in)[1] != 0;
  in->remove_prefix(2);
  if (r->valid) {
    EON_RETURN_IF_ERROR(GetValue(in, type, &r->min));
    EON_RETURN_IF_ERROR(GetValue(in, type, &r->max));
  }
  return Status::OK();
}

}  // namespace

struct PendingFile::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  FileRef ref;
  obs::Histogram* wait_hist = nullptr;
};

PendingFile PendingFile::MakeReady(Result<FileRef> result) {
  PendingFile pf;
  pf.ready_ = true;
  if (result.ok()) {
    pf.ready_ref_ = std::move(result).value();
  } else {
    pf.ready_status_ = result.status();
  }
  return pf;
}

PendingFile PendingFile::MakePending(obs::Histogram* wait_hist) {
  PendingFile pf;
  pf.state_ = std::make_shared<State>();
  pf.state_->wait_hist = wait_hist;
  return pf;
}

void PendingFile::Complete(Result<FileRef> result) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (result.ok()) {
      state_->ref = std::move(result).value();
    } else {
      state_->status = result.status();
    }
    state_->done = true;
  }
  state_->cv.notify_all();
}

Result<FileRef> PendingFile::Wait(int64_t* wait_micros) {
  if (ready_) {
    if (!ready_status_.ok()) return ready_status_;
    if (ready_ref_ == nullptr) {
      return Status::Internal("ready PendingFile waited on twice");
    }
    return std::move(ready_ref_);
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  if (!state_->done) {
    const auto start = std::chrono::steady_clock::now();
    state_->cv.wait(lock, [this] { return state_->done; });
    const int64_t blocked =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (wait_micros != nullptr) *wait_micros += blocked;
    if (state_->wait_hist != nullptr) {
      state_->wait_hist->Observe(static_cast<double>(blocked));
    }
  }
  if (!state_->status.ok()) return state_->status;
  return state_->ref;
}

Result<FileRef> FileFetcher::FetchRef(const std::string& key) {
  EON_ASSIGN_OR_RETURN(std::string data, Fetch(key));
  return std::make_shared<const std::string>(std::move(data));
}

PendingFile FileFetcher::FetchRefAsync(const std::string& key) {
  return PendingFile::MakeReady(FetchRef(key));
}

Result<std::string> DirectFetcher::Fetch(const std::string& key) {
  return store_->Get(key);
}

std::string RosContainerWriter::ColumnKey(std::string_view base_key,
                                          size_t col) {
  const std::string suffix = std::to_string(col);
  std::string key;
  key.reserve(base_key.size() + 2 + suffix.size());
  key.append(base_key).append("_c").append(suffix);
  return key;
}

Result<RosBuildResult> RosContainerWriter::Build(
    const Schema& schema, const std::vector<Row>& rows,
    const std::string& base_key, const RosWriteOptions& options) {
  if (options.rows_per_block == 0) {
    return Status::InvalidArgument("rows_per_block must be positive");
  }
  for (const Row& row : rows) {
    if (!schema.RowMatches(row)) {
      return Status::InvalidArgument("row does not match schema");
    }
  }

  RosBuildResult result;
  result.row_count = rows.size();
  result.column_ranges.resize(schema.num_columns());

  for (size_t col = 0; col < schema.num_columns(); ++col) {
    const DataType type = schema.column(col).type;
    std::string file;
    std::vector<BlockMeta> blocks;

    for (uint64_t start = 0; start < rows.size();
         start += options.rows_per_block) {
      const uint64_t end =
          std::min<uint64_t>(start + options.rows_per_block, rows.size());
      std::vector<Value> chunk;
      chunk.reserve(end - start);
      ValueRange range;
      for (uint64_t r = start; r < end; ++r) {
        chunk.push_back(rows[r][col]);
        UpdateRange(&range, rows[r][col]);
        UpdateRange(&result.column_ranges[col], rows[r][col]);
      }
      const Encoding enc = ChooseEncoding(chunk, type);
      Result<std::string> encoded_r = EncodeChunk(chunk, type, enc);
      if (!encoded_r.ok() && enc != Encoding::kPlain) {
        // Sampled write-time stats can admit an encoding the full chunk
        // rejects (e.g. delta over a null outside the sample windows);
        // plain accepts anything.
        encoded_r = EncodeChunk(chunk, type, Encoding::kPlain);
      }
      EON_ASSIGN_OR_RETURN(std::string encoded, std::move(encoded_r));
      PutFixed32(&encoded, Crc32c(encoded.data(), encoded.size()));

      BlockMeta meta;
      meta.offset = file.size();
      meta.length = encoded.size();
      meta.row_count = end - start;
      meta.first_row = start;
      meta.range = range;
      blocks.push_back(meta);
      file += encoded;
    }

    // Footer: position index + per-block min/max, checksummed.
    std::string footer;
    PutVarint64(&footer, blocks.size());
    PutVarint64(&footer, rows.size());
    for (const BlockMeta& b : blocks) {
      PutVarint64(&footer, b.offset);
      PutVarint64(&footer, b.length);
      PutVarint64(&footer, b.row_count);
      PutVarint64(&footer, b.first_row);
      PutRange(&footer, b.range);
    }
    PutFixed32(&footer, Crc32c(footer.data(), footer.size()));

    const uint64_t footer_len = footer.size();
    file += footer;
    PutFixed64(&file, footer_len);
    PutFixed32(&file, kColumnFileMagic);

    result.total_bytes += file.size();
    result.files.push_back(
        RosColumnFile{ColumnKey(base_key, col), std::move(file)});
  }
  return result;
}

Result<ColumnFileReader> ColumnFileReader::Open(std::string file_data,
                                                DataType type) {
  return Open(std::make_shared<const std::string>(std::move(file_data)),
              type);
}

Result<ColumnFileReader> ColumnFileReader::Open(FileRef file_data,
                                                DataType type) {
  ColumnFileReader reader;
  reader.data_ = std::move(file_data);
  reader.type_ = type;
  const std::string& data = *reader.data_;
  if (data.size() < 12) return Status::Corruption("column file too short");

  Slice tail(data.data() + data.size() - 12, 12);
  uint64_t footer_len;
  uint32_t magic;
  EON_RETURN_IF_ERROR(GetFixed64(&tail, &footer_len));
  EON_RETURN_IF_ERROR(GetFixed32(&tail, &magic));
  if (magic != kColumnFileMagic) {
    return Status::Corruption("column file bad magic");
  }
  if (footer_len + 12 > data.size()) {
    return Status::Corruption("column file footer length invalid");
  }
  const char* footer_start = data.data() + data.size() - 12 - footer_len;
  if (footer_len < 4) return Status::Corruption("footer too short");
  Slice footer(footer_start, footer_len - 4);
  Slice crc_slice(footer_start + footer_len - 4, 4);
  uint32_t stored_crc;
  EON_RETURN_IF_ERROR(GetFixed32(&crc_slice, &stored_crc));
  if (Crc32c(footer.data(), footer.size()) != stored_crc) {
    return Status::Corruption("column file footer checksum mismatch");
  }

  uint64_t num_blocks;
  EON_RETURN_IF_ERROR(GetVarint64(&footer, &num_blocks));
  EON_RETURN_IF_ERROR(GetVarint64(&footer, &reader.row_count_));
  reader.blocks_.reserve(num_blocks);
  for (uint64_t i = 0; i < num_blocks; ++i) {
    BlockMeta meta;
    EON_RETURN_IF_ERROR(GetVarint64(&footer, &meta.offset));
    EON_RETURN_IF_ERROR(GetVarint64(&footer, &meta.length));
    EON_RETURN_IF_ERROR(GetVarint64(&footer, &meta.row_count));
    EON_RETURN_IF_ERROR(GetVarint64(&footer, &meta.first_row));
    EON_RETURN_IF_ERROR(GetRange(&footer, reader.type_, &meta.range));
    if (meta.offset + meta.length > data.size() - 12 - footer_len) {
      return Status::Corruption("block extends past data region");
    }
    reader.blocks_.push_back(std::move(meta));
  }
  return reader;
}

Result<ChunkView> ColumnFileReader::BlockChunk(size_t i) const {
  if (i >= blocks_.size()) return Status::OutOfRange("block index");
  const BlockMeta& meta = blocks_[i];
  if (meta.length < 4) return Status::Corruption("block too short");
  Slice block(data_->data() + meta.offset, meta.length - 4);
  Slice crc_slice(data_->data() + meta.offset + meta.length - 4, 4);
  uint32_t stored_crc;
  EON_RETURN_IF_ERROR(GetFixed32(&crc_slice, &stored_crc));
  if (Crc32c(block.data(), block.size()) != stored_crc) {
    return Status::Corruption("block checksum mismatch");
  }
  EON_ASSIGN_OR_RETURN(ChunkView view, ParseChunk(block));
  if (view.count != meta.row_count) {
    return Status::Corruption("block row count mismatch");
  }
  return view;
}

Status ColumnFileReader::DecodeBlock(size_t i, std::vector<Value>* out) const {
  EON_ASSIGN_OR_RETURN(ChunkView view, BlockChunk(i));
  out->reserve(out->size() + view.count);
  return DecodeChunkSelected(view, type_, /*sel=*/nullptr, out);
}

Status ColumnFileReader::DecodeBlockBatch(size_t i, ColumnBatch* out,
                                          uint64_t* values_unpacked) const {
  EON_ASSIGN_OR_RETURN(ChunkView view, BlockChunk(i));
  return DecodeChunkToBatch(view, type_, out, values_unpacked);
}

Status ColumnFileReader::DecodeSelected(size_t i, const uint8_t* sel,
                                        std::vector<Value>* out,
                                        uint64_t* values_decoded,
                                        uint64_t* values_unpacked) const {
  EON_ASSIGN_OR_RETURN(ChunkView view, BlockChunk(i));
  return DecodeChunkSelected(view, type_, sel, out, values_decoded,
                             values_unpacked);
}

const char* ScanModeName(ScanMode mode) {
  switch (mode) {
    case ScanMode::kRowWise: return "row_wise";
    case ScanMode::kBlockEval: return "block_eval";
    case ScanMode::kLateMat: return "late_mat";
  }
  return "?";
}

namespace {

/// Column plan of one pack scan, computed once per ScanRosPack call and
/// shared by every container of the pack.
struct ScanPlan {
  std::vector<size_t> pred;          ///< Distinct predicate columns, ascending.
  std::vector<size_t> out_distinct;  ///< Distinct output columns, ascending.
  /// Column files read per container, in reader-slot order. Late
  /// materialization: `pred` (phase 1), then the output-only columns
  /// (phase 2). Eager: every needed column, ascending.
  std::vector<size_t> fetch;
  /// Leading `fetch` entries issued in the first batch (all of them on
  /// the eager path).
  size_t phase1_files = 0;
  std::vector<int> slot;  ///< Column -> index into `fetch`; -1 = not read.
  /// output_columns[k] -> index into `out_distinct`.
  std::vector<size_t> out_pos;
  bool late_mat = false;
};

Result<ScanPlan> PlanScan(const Schema& schema, const RosScanOptions& options) {
  ScanPlan plan;
  if (options.predicate) {
    // Taken from the caller's precomputed split when provided, otherwise
    // collected from the predicate tree.
    std::set<size_t> cols;
    if (!options.predicate_columns.empty()) {
      cols.insert(options.predicate_columns.begin(),
                  options.predicate_columns.end());
    } else {
      options.predicate->CollectColumns(&cols);
    }
    plan.pred.assign(cols.begin(), cols.end());
  }
  plan.out_distinct = options.output_columns;
  std::sort(plan.out_distinct.begin(), plan.out_distinct.end());
  plan.out_distinct.erase(
      std::unique(plan.out_distinct.begin(), plan.out_distinct.end()),
      plan.out_distinct.end());
  for (const std::vector<size_t>* cols : {&plan.pred, &plan.out_distinct}) {
    for (size_t col : *cols) {
      if (col >= schema.num_columns()) {
        return Status::InvalidArgument("column index out of range");
      }
    }
  }

  plan.late_mat = options.late_mat && options.block_eval &&
                  options.predicate != nullptr && !plan.pred.empty();
  if (plan.late_mat) {
    plan.fetch = plan.pred;
    plan.phase1_files = plan.fetch.size();
    for (size_t col : plan.out_distinct) {
      if (!std::binary_search(plan.pred.begin(), plan.pred.end(), col)) {
        plan.fetch.push_back(col);
      }
    }
  } else {
    std::set_union(plan.pred.begin(), plan.pred.end(),
                   plan.out_distinct.begin(), plan.out_distinct.end(),
                   std::back_inserter(plan.fetch));
    plan.phase1_files = plan.fetch.size();
  }
  plan.slot.assign(schema.num_columns(), -1);
  for (size_t i = 0; i < plan.fetch.size(); ++i) {
    plan.slot[plan.fetch[i]] = static_cast<int>(i);
  }
  plan.out_pos.reserve(options.output_columns.size());
  for (size_t col : options.output_columns) {
    plan.out_pos.push_back(static_cast<size_t>(
        std::lower_bound(plan.out_distinct.begin(), plan.out_distinct.end(),
                         col) -
        plan.out_distinct.begin()));
  }
  return plan;
}

/// Phase-1 result for one block with at least one surviving row.
struct Survivor {
  size_t block = 0;
  uint64_t selected = 0;
  SelectionVector sel;
  /// Phase-1 fallback decodes of predicate∩output columns; compacted in
  /// phase 2 without a second decode.
  std::vector<std::pair<size_t, ColumnBatch>> phase1;
};

/// One container's progress through a pack scan.
struct ContainerScan {
  std::vector<PendingFile> pending;       ///< Issued, not yet opened.
  std::vector<ColumnFileReader> readers;  ///< Reader slot order.
  std::vector<Survivor> survivors;
};

/// Start async fetches of plan.fetch[begin, end) for one container.
void IssueFetches(const ScanPlan& plan, size_t begin, size_t end,
                  std::string_view base_key, FileFetcher* fetcher,
                  ContainerScan* cs) {
  for (size_t i = begin; i < end; ++i) {
    cs->pending.push_back(fetcher->FetchRefAsync(
        RosContainerWriter::ColumnKey(base_key, plan.fetch[i])));
  }
}

/// Wait for a container's issued fetches in slot order (a fetch that
/// finished early waits zero), open a reader per file, and verify every
/// file agrees with the first on block layout. Blocked wall time lands in
/// st->fetch_wait_micros.
Status OpenFetched(const Schema& schema, const ScanPlan& plan,
                   ContainerScan* cs, RosScanStats* st) {
  for (PendingFile& pf : cs->pending) {
    const size_t col = plan.fetch[cs->readers.size()];
    EON_ASSIGN_OR_RETURN(FileRef data, pf.Wait(&st->fetch_wait_micros));
    st->files_fetched++;
    st->bytes_fetched += data->size();
    EON_ASSIGN_OR_RETURN(
        ColumnFileReader reader,
        ColumnFileReader::Open(std::move(data), schema.column(col).type));
    if (!cs->readers.empty() &&
        (reader.num_blocks() != cs->readers[0].num_blocks() ||
         reader.row_count() != cs->readers[0].row_count())) {
      return Status::Corruption("column files disagree on block layout");
    }
    cs->readers.push_back(std::move(reader));
  }
  cs->pending.clear();
  return Status::OK();
}

/// EncodedBlockSource over one block of a container's predicate-column
/// readers: comparison leaves evaluate directly on the encoded chunk (per
/// RLE run / per dictionary entry) when possible, with a lazily decoded,
/// per-block-cached fallback for plain and delta columns. Decode or CRC
/// errors cannot flow through the bool interface, so the first failure is
/// latched in status() — check it after every EvalBlockEncoded.
class BlockPredicateSource : public EncodedBlockSource {
 public:
  /// `st` receives decode/unpack/kernel accounting.
  BlockPredicateSource(const ScanPlan& plan, RosScanStats* st)
      : plan_(plan), st_(st) {
    // At most one entry per predicate column per block: reserving keeps
    // the pointers DecodedColumn hands out stable.
    chunks_.reserve(plan.phase1_files);
    decoded_.reserve(plan.phase1_files);
  }

  void SetReaders(const std::vector<ColumnFileReader>* readers) {
    readers_ = readers;
  }

  void SetBlock(size_t block, uint64_t row_count) {
    block_ = block;
    row_count_ = row_count;
    chunks_.clear();
    decoded_.clear();
  }

  bool TryEvalCmpEncoded(size_t col, CmpOp op, const Value& literal,
                         uint8_t* sel) override {
    const ColumnFileReader* reader = status_.ok() ? Reader(col) : nullptr;
    const ChunkView* view = reader ? Chunk(col, *reader) : nullptr;
    if (view == nullptr) {
      // Unfetched column (or latched error): no row matches, same as
      // EvalBlock's missing-column rule.
      std::fill(sel, sel + row_count_, uint8_t{0});
      return true;
    }
    Result<bool> handled =
        EvalChunkCmp(*view, reader->type(), op, literal, sel,
                     &st_->values_decoded, &st_->values_unpacked,
                     &st_->kernel_calls);
    if (!handled.ok()) {
      status_ = handled.status();
      std::fill(sel, sel + row_count_, uint8_t{0});
      return true;
    }
    return handled.value();
  }

  const ColumnBatch* DecodedColumn(size_t col) override {
    if (!status_.ok()) return nullptr;
    for (auto& [c, batch] : decoded_) {
      if (c == col) return &batch;
    }
    const ColumnFileReader* reader = Reader(col);
    if (reader == nullptr) return nullptr;
    ColumnBatch batch;
    Status s = reader->DecodeBlockBatch(block_, &batch, &st_->values_unpacked);
    if (!s.ok()) {
      status_ = s;
      return nullptr;
    }
    st_->values_decoded += batch.size();
    decoded_.emplace_back(col, std::move(batch));
    return &decoded_.back().second;
  }

  /// Move out the fallback-decoded column of the current block, if phase 1
  /// produced one — lets the scan keep predicate∩output columns for
  /// phase 2 without paying for a second decode. The next SetBlock drops
  /// the (moved-from) entry.
  bool TakeDecoded(size_t col, ColumnBatch* out) {
    for (auto& [c, batch] : decoded_) {
      if (c != col) continue;
      *out = std::move(batch);
      return true;
    }
    return false;
  }

  const Status& status() const { return status_; }

 private:
  const ColumnFileReader* Reader(size_t col) const {
    const int s = col < plan_.slot.size() ? plan_.slot[col] : -1;
    if (s < 0 || static_cast<size_t>(s) >= readers_->size()) return nullptr;
    return &(*readers_)[s];
  }

  const ChunkView* Chunk(size_t col, const ColumnFileReader& reader) {
    for (const auto& [c, view] : chunks_) {
      if (c == col) return &view;
    }
    Result<ChunkView> view = reader.BlockChunk(block_);
    if (!view.ok()) {
      status_ = view.status();
      return nullptr;
    }
    chunks_.emplace_back(col, view.value());
    return &chunks_.back().second;
  }

  const ScanPlan& plan_;
  RosScanStats* st_;
  const std::vector<ColumnFileReader>* readers_ = nullptr;
  size_t block_ = 0;
  uint64_t row_count_ = 0;
  std::vector<std::pair<size_t, ChunkView>> chunks_;
  std::vector<std::pair<size_t, ColumnBatch>> decoded_;
  Status status_;
};

/// Late-materialization phase 1 over one container whose predicate
/// readers are open: evaluate the predicate per block — on the encoded
/// representation where the encoding supports it — folding the row range
/// and tombstones into one selection vector, and buffer every block with
/// survivors (plus any column phase 1 already decoded) for phase 2.
Status EvalPhase1(const RosScanOptions& options, const ScanPlan& plan,
                  const RosScanTarget& target, BlockPredicateSource* src,
                  std::vector<ValueRange>* ranges, ContainerScan* cs,
                  RosScanStats* st) {
  const ColumnFileReader& first = cs->readers[0];
  src->SetReaders(&cs->readers);
  for (size_t b = 0; b < first.num_blocks(); ++b) {
    const BlockMeta& bm = first.block(b);
    st->blocks_total++;

    const uint64_t block_begin = bm.first_row;
    const uint64_t block_end = bm.first_row + bm.row_count;
    if (block_end <= target.row_begin || block_begin >= target.row_end) {
      st->blocks_pruned++;
      continue;
    }

    // CouldMatch only inspects predicate-referenced columns, so
    // predicate-only ranges prune exactly like the eager path's full
    // range set.
    for (size_t i = 0; i < plan.pred.size(); ++i) {
      (*ranges)[plan.pred[i]] = cs->readers[i].block(b).range;
    }
    if (!options.predicate->CouldMatch(*ranges)) {
      st->blocks_pruned++;
      continue;
    }

    // Encoded predicate evaluation, then fold the row range and
    // tombstones into the selection vector.
    src->SetBlock(b, bm.row_count);
    SelectionVector sel;
    options.predicate->EvalBlockEncoded(src, bm.row_count, &sel,
                                        &st->kernel_calls);
    EON_RETURN_IF_ERROR(src->status());
    uint64_t selected = 0;
    if (target.deletes == nullptr && target.row_begin <= block_begin &&
        block_end <= target.row_end) {
      st->rows_visited += bm.row_count;
      for (uint64_t i = 0; i < bm.row_count; ++i) selected += sel[i] != 0;
    } else {
      for (uint64_t i = 0; i < bm.row_count; ++i) {
        const uint64_t pos = block_begin + i;
        if (pos < target.row_begin || pos >= target.row_end) {
          sel[i] = 0;
          continue;
        }
        st->rows_visited++;
        if (target.deletes && target.deletes->IsDeleted(pos)) {
          sel[i] = 0;
          continue;
        }
        if (sel[i]) ++selected;
      }
    }
    if (selected == 0) continue;

    Survivor sv;
    sv.block = b;
    sv.selected = selected;
    for (size_t col : plan.out_distinct) {
      if (plan.slot[col] >= static_cast<int>(plan.phase1_files)) continue;
      ColumnBatch vals;
      if (src->TakeDecoded(col, &vals)) {
        sv.phase1.emplace_back(col, std::move(vals));
      }
    }
    sv.sel = std::move(sel);
    cs->survivors.push_back(std::move(sv));
  }
  return Status::OK();
}

/// Late-materialization phase 2 over one container whose output readers
/// are open: selectively decode each distinct output column of every
/// surviving block, in block order (byte-identical to a fused single-pass
/// loop). All columns share the block's selection vector, so the k-th
/// entry of every dense vector belongs to the k-th surviving row.
Status MaterializeSurvivors(const ScanPlan& plan, const RosScanTarget& target,
                            ContainerScan* cs,
                            std::vector<std::vector<Value>>* dense,
                            RosScanStats* st) {
  const ColumnFileReader& first = cs->readers[0];
  for (Survivor& sv : cs->survivors) {
    const BlockMeta& bm = first.block(sv.block);
    if (target.positions != nullptr) {
      for (uint64_t i = 0; i < bm.row_count; ++i) {
        if (sv.sel[i]) target.positions->push_back(bm.first_row + i);
      }
    }
    st->rows_output += sv.selected;
    if (target.rows == nullptr) continue;
    for (size_t d = 0; d < plan.out_distinct.size(); ++d) {
      const size_t col = plan.out_distinct[d];
      std::vector<Value>& vals = (*dense)[d];
      vals.clear();
      vals.reserve(sv.selected);
      const ColumnBatch* full = nullptr;
      for (const auto& [c, batch] : sv.phase1) {
        if (c == col) full = &batch;
      }
      if (full != nullptr) {
        for (uint64_t i = 0; i < bm.row_count; ++i) {
          if (sv.sel[i]) vals.push_back(full->GetValue(i));
        }
      } else {
        EON_RETURN_IF_ERROR(cs->readers[plan.slot[col]].DecodeSelected(
            sv.block, sv.sel.data(), &vals, &st->values_decoded,
            &st->values_unpacked));
      }
      if (vals.size() != sv.selected) {
        return Status::Corruption("selective decode count mismatch");
      }
    }
    for (uint64_t k = 0; k < sv.selected; ++k) {
      Row out_row;
      out_row.reserve(plan.out_pos.size());
      for (size_t p : plan.out_pos) out_row.push_back((*dense)[p][k]);
      target.rows->push_back(std::move(out_row));
    }
  }
  return Status::OK();
}

/// Reusable per-call buffers of the eager pipelines.
struct EagerBuffers {
  std::vector<ColumnBatch> cols;             ///< Reader slot order.
  std::vector<const ColumnBatch*> by_column;  ///< Projection position.
  Row probe;                                  ///< Row-wise reference path.
};

/// Eager scan of one container whose readers are all open: decode every
/// fetched column per block straight into columnar batch layout, then
/// filter by the block-at-a-time kernels (or the row-wise reference Eval)
/// and materialize survivors.
Status ScanEager(const RosScanOptions& options, const ScanPlan& plan,
                 const RosScanTarget& target, std::vector<ValueRange>* ranges,
                 ContainerScan* cs, EagerBuffers* buf, RosScanStats* st) {
  if (cs->readers.empty()) return Status::OK();  // No columns requested.
  const ColumnFileReader& first = cs->readers[0];
  const bool use_sel = options.predicate != nullptr && options.block_eval;
  SelectionVector sel;
  for (size_t b = 0; b < first.num_blocks(); ++b) {
    const BlockMeta& bm = first.block(b);
    st->blocks_total++;

    // Row-range restriction (container split).
    const uint64_t block_begin = bm.first_row;
    const uint64_t block_end = bm.first_row + bm.row_count;
    if (block_end <= target.row_begin || block_begin >= target.row_end) {
      st->blocks_pruned++;
      continue;
    }

    // Min/max pruning using every fetched column's stats for this block.
    if (options.predicate) {
      for (size_t s = 0; s < plan.fetch.size(); ++s) {
        (*ranges)[plan.fetch[s]] = cs->readers[s].block(b).range;
      }
      if (!options.predicate->CouldMatch(*ranges)) {
        st->blocks_pruned++;
        continue;
      }
    }

    for (size_t s = 0; s < plan.fetch.size(); ++s) {
      EON_RETURN_IF_ERROR(cs->readers[s].DecodeBlockBatch(
          b, &buf->cols[s], &st->values_unpacked));
      st->values_decoded += buf->cols[s].size();
    }

    // Block-at-a-time predicate: one selection vector for the whole
    // block via the vectorized kernels, then only survivors are
    // materialized below.
    if (use_sel) {
      options.predicate->EvalBlockBatch(buf->by_column, bm.row_count, &sel,
                                        &st->kernel_calls);
    }

    for (uint64_t i = 0; i < bm.row_count; ++i) {
      const uint64_t pos = block_begin + i;
      if (pos < target.row_begin || pos >= target.row_end) continue;
      st->rows_visited++;
      if (target.deletes && target.deletes->IsDeleted(pos)) continue;
      if (use_sel) {
        if (!sel[i]) continue;
      } else if (options.predicate) {
        for (size_t s = 0; s < plan.fetch.size(); ++s) {
          buf->probe[plan.fetch[s]] = buf->cols[s].GetValue(i);
        }
        if (!options.predicate->Eval(buf->probe)) continue;
      }
      st->rows_output++;
      if (target.positions != nullptr) target.positions->push_back(pos);
      if (target.rows == nullptr) continue;
      Row out_row;
      out_row.reserve(options.output_columns.size());
      for (size_t col : options.output_columns) {
        out_row.push_back(buf->cols[plan.slot[col]].GetValue(i));
      }
      target.rows->push_back(std::move(out_row));
    }
  }
  return Status::OK();
}

}  // namespace

Status ScanRosPack(const Schema& schema,
                   const std::vector<RosScanTarget>& pack,
                   FileFetcher* fetcher, const RosScanOptions& options,
                   RosScanStats* stats) {
  RosScanStats local_stats;
  RosScanStats* st = stats ? stats : &local_stats;
  EON_ASSIGN_OR_RETURN(const ScanPlan plan, PlanScan(schema, options));

  // Batch 1: the predicate-column files (every needed file on the eager
  // path) of every container, so their store round trips overlap.
  std::vector<ContainerScan> scans(pack.size());
  for (size_t i = 0; i < pack.size(); ++i) {
    scans[i].pending.reserve(plan.phase1_files);
    IssueFetches(plan, 0, plan.phase1_files, pack[i].base_key, fetcher,
                 &scans[i]);
  }
  // Only the entries of fetched columns are ever written; the rest stay
  // invalid, which CouldMatch ignores.
  std::vector<ValueRange> ranges(schema.num_columns());

  if (!plan.late_mat) {
    EagerBuffers buf;
    buf.cols.resize(plan.fetch.size());
    buf.by_column.assign(schema.num_columns(), nullptr);
    for (size_t s = 0; s < plan.fetch.size(); ++s) {
      buf.by_column[plan.fetch[s]] = &buf.cols[s];
    }
    if (options.predicate && !options.block_eval) {
      buf.probe.resize(schema.num_columns());
    }
    for (size_t i = 0; i < pack.size(); ++i) {
      EON_RETURN_IF_ERROR(OpenFetched(schema, plan, &scans[i], st));
      EON_RETURN_IF_ERROR(
          ScanEager(options, plan, pack[i], &ranges, &scans[i], &buf, st));
      scans[i].readers.clear();
    }
    return Status::OK();
  }

  // Phase 1 over the whole pack.
  BlockPredicateSource src(plan, st);
  for (size_t i = 0; i < pack.size(); ++i) {
    EON_RETURN_IF_ERROR(OpenFetched(schema, plan, &scans[i], st));
    EON_RETURN_IF_ERROR(
        EvalPhase1(options, plan, pack[i], &src, &ranges, &scans[i], st));
  }

  // Batch 2: the output-only files of every container with survivors; a
  // container where nothing survived never fetches them.
  const size_t out_only_files = plan.fetch.size() - plan.phase1_files;
  for (size_t i = 0; i < pack.size(); ++i) {
    if (scans[i].survivors.empty()) {
      st->files_skipped += out_only_files;
      continue;
    }
    if (pack[i].rows == nullptr) continue;  // Positions only.
    IssueFetches(plan, plan.phase1_files, plan.fetch.size(), pack[i].base_key,
                 fetcher, &scans[i]);
  }

  // Phase 2, container by container in pack order.
  std::vector<std::vector<Value>> dense(plan.out_distinct.size());
  for (size_t i = 0; i < pack.size(); ++i) {
    if (scans[i].survivors.empty()) continue;
    EON_RETURN_IF_ERROR(OpenFetched(schema, plan, &scans[i], st));
    EON_RETURN_IF_ERROR(
        MaterializeSurvivors(plan, pack[i], &scans[i], &dense, st));
    scans[i] = ContainerScan();
  }
  return Status::OK();
}

Result<std::vector<Row>> ScanRosContainer(const Schema& schema,
                                          const std::string& base_key,
                                          FileFetcher* fetcher,
                                          const RosScanOptions& options,
                                          RosScanStats* stats) {
  std::vector<Row> out;
  RosScanTarget target;
  target.base_key = base_key;
  target.deletes = options.deletes;
  target.row_begin = options.row_begin;
  target.row_end = options.row_end;
  target.rows = &out;
  EON_RETURN_IF_ERROR(ScanRosPack(schema, {target}, fetcher, options, stats));
  return out;
}

Result<std::vector<uint64_t>> FindMatchingPositions(
    const Schema& schema, const std::string& base_key, FileFetcher* fetcher,
    const PredicatePtr& predicate, const DeleteVector* deletes) {
  // Same phase-1 machinery as a query scan: the predicate evaluates on the
  // encoded representation where possible, and no output column is ever
  // decoded, so DELETEs never decode more than they must.
  RosScanOptions scan;
  scan.predicate = predicate;
  std::set<size_t> pred_cols;
  if (predicate) predicate->CollectColumns(&pred_cols);
  if (pred_cols.empty()) {
    // Match-all: positions derive from any column's layout; read column 0.
    scan.output_columns = {0};
  }
  std::vector<uint64_t> positions;
  RosScanTarget target;
  target.base_key = base_key;
  target.deletes = deletes;
  target.positions = &positions;
  EON_RETURN_IF_ERROR(ScanRosPack(schema, {target}, fetcher, scan));
  return positions;
}

}  // namespace eon
