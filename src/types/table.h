// FTable — a relational table built on FMap (the paper's "composite data
// structures built on them (e.g., relational table)").
//
// Representation: a kTableMeta header chunk
//     [varint ncols][len-prefixed column names...][key-column varint]
//     [rows-root 32B]
// where rows-root is a map POS-Tree keyed by the primary-key column's cell,
// each value being the row's cells encoded len-prefixed in schema order.
// The table id is the header chunk hash, so it covers schema + all content.
#ifndef FORKBASE_TYPES_TABLE_H_
#define FORKBASE_TYPES_TABLE_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "types/map.h"
#include "util/csv.h"

namespace forkbase {

/// A per-row difference between two table versions, refined per column.
struct RowDelta {
  std::string key;
  std::optional<std::vector<std::string>> left;   ///< absent = row not in left
  std::optional<std::vector<std::string>> right;
  std::vector<size_t> changed_columns;  ///< set only when both sides present
};

class FTable {
 public:
  /// Builds a table from a schema and rows. `key_column` cells must be
  /// unique; they become the primary keys.
  static StatusOr<FTable> Create(ChunkStore* store,
                                 std::vector<std::string> columns,
                                 const std::vector<std::vector<std::string>>& rows,
                                 size_t key_column = 0);
  /// Builds from a parsed CSV document (header = schema).
  static StatusOr<FTable> FromCsv(ChunkStore* store, const CsvDocument& doc,
                                  size_t key_column = 0);
  /// Wraps an existing header chunk id.
  static StatusOr<FTable> Attach(const ChunkStore* store, const Hash256& id);

  /// Table identity: the header chunk hash (covers schema and all rows).
  const Hash256& id() const { return id_; }
  const std::vector<std::string>& columns() const { return columns_; }
  size_t key_column() const { return key_column_; }
  const FMap& rows() const { return rows_; }

  StatusOr<uint64_t> NumRows() const { return rows_.Size(); }

  /// Row lookup by primary key. Cells are in schema order.
  StatusOr<std::optional<std::vector<std::string>>> GetRow(Slice key) const;
  /// Single-cell lookup.
  StatusOr<std::optional<std::string>> GetCell(Slice key,
                                               size_t column) const;

  /// Functional row updates (new table; old versions remain addressable).
  StatusOr<FTable> UpsertRow(const std::vector<std::string>& row) const;
  StatusOr<FTable> UpsertRows(
      const std::vector<std::vector<std::string>>& rows) const;
  StatusOr<FTable> DeleteRow(Slice key) const;
  StatusOr<FTable> UpdateCell(Slice key, size_t column,
                              const std::string& value) const;

  /// Schema evolution (functional, like every other update): existing rows
  /// are rewritten to the new width; history keeps the old schema.
  StatusOr<FTable> AddColumn(const std::string& name,
                             const std::string& default_value = "") const;
  /// Drops a non-key column by index.
  StatusOr<FTable> DropColumn(size_t column) const;
  StatusOr<FTable> RenameColumn(size_t column, const std::string& name) const;

  /// In-order scan: fn(primary key, cells), on the calling thread, while
  /// the shared hash pool reads and splits the leaves ahead of it. `cells`
  /// is one buffer reused across rows: copy what must outlive the call. A
  /// non-OK return from fn stops the scan and is returned.
  Status Scan(const std::function<Status(
                  Slice key, const std::vector<std::string>&)>& fn) const;

  /// Rows matching a predicate (the demo's Select).
  StatusOr<std::vector<std::vector<std::string>>> Select(
      const std::function<bool(const std::vector<std::string>&)>& pred) const;

  /// Exports to a CSV document in key order.
  StatusOr<CsvDocument> ToCsv() const;

  /// Row-level diff (hash-pruned through the row map) refined per column.
  /// Tables must share a schema.
  StatusOr<std::vector<RowDelta>> Diff(const FTable& other,
                                       DiffMetrics* metrics = nullptr) const;

  /// Three-way merge at row granularity, refined to column granularity: two
  /// sides editing different columns of the same row merge cleanly.
  static StatusOr<FTable> Merge3(const FTable& base, const FTable& left,
                                 const FTable& right,
                                 MergePolicy policy = MergePolicy::kStrict,
                                 DiffMetrics* metrics = nullptr);

  /// Validates header + row tree integrity (hashes, ordering, row widths):
  /// Verify(store, id()).
  Status Validate() const;

  /// Attach and Validate in one pass that reads the header once: it must
  /// re-hash to `id` (else Corruption "table header tampered"), then the
  /// row tree it names is validated.
  static Status Verify(const ChunkStore* store, const Hash256& id);

  /// Encodes cells in schema order (len-prefixed each).
  static std::string EncodeRow(const std::vector<std::string>& cells);
  static bool DecodeRow(Slice bytes, size_t ncols,
                        std::vector<std::string>* cells);

 private:
  FTable(const ChunkStore* store, Hash256 id, std::vector<std::string> columns,
         size_t key_column, FMap rows)
      : store_(store),
        id_(id),
        columns_(std::move(columns)),
        key_column_(key_column),
        rows_(std::move(rows)) {}

  /// Decodes the header chunk `header`, stored at `id`.
  static StatusOr<FTable> Parse(const ChunkStore* store, const Hash256& id,
                                const Chunk& header);
  /// Writes the header chunk for (columns, key_column, rows_root).
  static StatusOr<FTable> WriteHeader(ChunkStore* store,
                                      std::vector<std::string> columns,
                                      size_t key_column, const FMap& rows);
  StatusOr<FTable> WithRows(const FMap& rows) const;
  /// Appends EncodeRow(cells) to `out`.
  static void AppendRow(std::string* out,
                        const std::vector<std::string>& cells);
  /// DecodeRow without copying: the same checks (`ncols` cells, no trailing
  /// bytes), with `cells` pointing into `row`.
  static bool SplitRow(Slice row, size_t ncols, std::vector<Slice>* cells);
  /// The one row walk (Scan, RewriteRows): visits every row in key order,
  /// on the calling thread, with its SplitRow cells (valid during the call
  /// only). The leaf ids come from PosTree::LeafIds; on the ordered fan-out
  /// (OrderedFanOut), SharedHashPool() helpers and the caller read and
  /// split runs of kScanRunLeaves leaves, at most two rounds of
  /// kScanRoundRuns runs ahead. A non-OK visit stops the walk. A missing or
  /// malformed chunk or row stops it too, after exactly the rows a cursor
  /// walk delivers before it, with an error of the same class.
  using RowVisitor =
      std::function<Status(Slice key, std::span<const Slice> cells)>;
  Status WalkRows(const RowVisitor& visit) const;
  struct RowRun;
  /// Reads leaves `ids` into `run`: every row up to the first error.
  void ReadRun(std::span<const Hash256> ids, RowRun* run) const;
  /// Builds a row tree of every row's SplitRow cells as changed by
  /// `rewrite`.
  StatusOr<FMap> RewriteRows(
      const std::function<void(std::vector<Slice>* cells)>& rewrite) const;

  const ChunkStore* store_;
  Hash256 id_;
  std::vector<std::string> columns_;
  size_t key_column_;
  FMap rows_;
};

}  // namespace forkbase

#endif  // FORKBASE_TYPES_TABLE_H_
