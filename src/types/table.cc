#include "types/table.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string_view>


namespace forkbase {

std::string FTable::EncodeRow(const std::vector<std::string>& cells) {
  std::string out;
  AppendRow(&out, cells);
  return out;
}

void FTable::AppendRow(std::string* out,
                       const std::vector<std::string>& cells) {
  for (const auto& c : cells) PutLengthPrefixed(out, c);
}

bool FTable::DecodeRow(Slice bytes, size_t ncols,
                       std::vector<std::string>* cells) {
  cells->clear();
  Decoder dec(bytes);
  for (size_t i = 0; i < ncols; ++i) {
    Slice cell;
    if (!dec.GetLengthPrefixed(&cell)) return false;
    cells->push_back(cell.ToString());
  }
  return dec.AtEnd();
}

bool FTable::SplitRow(Slice row, size_t ncols, std::vector<Slice>* cells) {
  cells->resize(ncols);
  Decoder dec(row);
  for (size_t i = 0; i < ncols; ++i) {
    if (!dec.GetLengthPrefixed(&(*cells)[i])) return false;
  }
  return dec.AtEnd();
}

StatusOr<FTable> FTable::WriteHeader(ChunkStore* store,
                                     std::vector<std::string> columns,
                                     size_t key_column, const FMap& rows) {
  std::string payload;
  PutVarint64(&payload, columns.size());
  for (const auto& c : columns) PutLengthPrefixed(&payload, c);
  PutVarint64(&payload, key_column);
  payload.append(reinterpret_cast<const char*>(rows.root().bytes.data()), 32);
  Chunk header = Chunk::Make(ChunkType::kTableMeta, payload);
  FB_RETURN_IF_ERROR(store->Put(header));
  return FTable(store, header.hash(), std::move(columns), key_column, rows);
}

StatusOr<FTable> FTable::Create(
    ChunkStore* store, std::vector<std::string> columns,
    const std::vector<std::vector<std::string>>& rows, size_t key_column) {
  if (columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  if (key_column >= columns.size()) {
    return Status::InvalidArgument("key column out of range");
  }
  // One pass: row widths, and whether the keys already ascend strictly (if
  // they do, nothing needs sorting).
  bool ascending = true, duplicate = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != columns.size()) {
      return Status::InvalidArgument("row width differs from schema");
    }
    if (i > 0 && ascending) {
      const int c = rows[i - 1][key_column].compare(rows[i][key_column]);
      duplicate = c == 0;
      ascending = c < 0;
    }
  }
  // Out of order: sort (key, row) references, not copies of the rows. The
  // key view saves the comparator a hop through the row's cell array.
  std::vector<std::pair<std::string_view, const std::vector<std::string>*>>
      order;
  if (!ascending && !duplicate) {
    order.reserve(rows.size());
    for (const auto& row : rows) order.emplace_back(row[key_column], &row);
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    duplicate = std::adjacent_find(order.begin(), order.end(),
                                   [](const auto& a, const auto& b) {
                                     return a.first == b.first;
                                   }) != order.end();
  }
  if (duplicate) return Status::InvalidArgument("duplicate primary key");

  // Each row's map entry, (key, EncodeRow(row)), is encoded straight into
  // the bulk builder's node buffer: the row's length prefix is computed up
  // front, so no row is encoded twice.
  TreeBuilder builder(store, ChunkType::kMapLeaf, TreeConfig::ForEntries());
  FB_RETURN_IF_ERROR(builder.AddEntries(
      rows.size(), [&](size_t i, std::string* out) -> Slice {
        const std::vector<std::string>& row =
            ascending ? rows[i] : *order[i].second;
        size_t row_bytes = 0;
        for (const auto& c : row) {
          row_bytes += VarintLength(c.size()) + c.size();
        }
        PutLengthPrefixed(out, row[key_column]);
        PutVarint64(out, row_bytes);
        AppendRow(out, row);
        return row[key_column];
      }));
  FB_ASSIGN_OR_RETURN(TreeInfo info, builder.Finish());
  return WriteHeader(store, std::move(columns), key_column,
                     FMap::Attach(store, info.root));
}

StatusOr<FTable> FTable::FromCsv(ChunkStore* store, const CsvDocument& doc,
                                 size_t key_column) {
  return Create(store, doc.header, doc.rows, key_column);
}

StatusOr<FTable> FTable::Attach(const ChunkStore* store, const Hash256& id) {
  FB_ASSIGN_OR_RETURN(Chunk header, store->Get(id));
  return Parse(store, id, header);
}

StatusOr<FTable> FTable::Parse(const ChunkStore* store, const Hash256& id,
                               const Chunk& header) {
  if (header.type() != ChunkType::kTableMeta) {
    return Status::Corruption("not a table header chunk");
  }
  Decoder dec(header.payload());
  uint64_t ncols = 0;
  if (!dec.GetVarint64(&ncols) || ncols == 0) {
    return Status::Corruption("table header: bad column count");
  }
  std::vector<std::string> columns;
  for (uint64_t i = 0; i < ncols; ++i) {
    Slice name;
    if (!dec.GetLengthPrefixed(&name)) {
      return Status::Corruption("table header: bad column name");
    }
    columns.push_back(name.ToString());
  }
  uint64_t key_column = 0;
  if (!dec.GetVarint64(&key_column) || key_column >= ncols) {
    return Status::Corruption("table header: bad key column");
  }
  Slice root_bytes;
  if (!dec.GetRaw(32, &root_bytes) || !dec.AtEnd()) {
    return Status::Corruption("table header: bad rows root");
  }
  Hash256 rows_root;
  std::memcpy(rows_root.bytes.data(), root_bytes.data(), 32);
  return FTable(store, id, std::move(columns),
                static_cast<size_t>(key_column),
                FMap::Attach(store, rows_root));
}

StatusOr<FTable> FTable::WithRows(const FMap& rows) const {
  return WriteHeader(const_cast<ChunkStore*>(store_), columns_, key_column_,
                     rows);
}

StatusOr<std::optional<std::vector<std::string>>> FTable::GetRow(
    Slice key) const {
  FB_ASSIGN_OR_RETURN(auto encoded, rows_.Get(key));
  if (!encoded.has_value()) {
    return std::optional<std::vector<std::string>>{};
  }
  std::vector<std::string> cells;
  if (!DecodeRow(*encoded, columns_.size(), &cells)) {
    return Status::Corruption("malformed row for key " + key.ToString());
  }
  return std::optional<std::vector<std::string>>(std::move(cells));
}

StatusOr<std::optional<std::string>> FTable::GetCell(Slice key,
                                                     size_t column) const {
  if (column >= columns_.size()) {
    return Status::InvalidArgument("column out of range");
  }
  FB_ASSIGN_OR_RETURN(auto row, GetRow(key));
  if (!row.has_value()) return std::optional<std::string>{};
  return std::optional<std::string>((*row)[column]);
}

StatusOr<FTable> FTable::UpsertRow(const std::vector<std::string>& row) const {
  return UpsertRows({row});
}

StatusOr<FTable> FTable::UpsertRows(
    const std::vector<std::vector<std::string>>& rows) const {
  std::vector<KeyedOp> ops;
  ops.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.size() != columns_.size()) {
      return Status::InvalidArgument("row width differs from schema");
    }
    ops.push_back(KeyedOp{row[key_column_], EncodeRow(row)});
  }
  FB_ASSIGN_OR_RETURN(FMap new_rows, rows_.Apply(std::move(ops)));
  return WithRows(new_rows);
}

StatusOr<FTable> FTable::DeleteRow(Slice key) const {
  FB_ASSIGN_OR_RETURN(FMap new_rows, rows_.Remove(key.ToString()));
  return WithRows(new_rows);
}

StatusOr<FTable> FTable::UpdateCell(Slice key, size_t column,
                                    const std::string& value) const {
  if (column >= columns_.size()) {
    return Status::InvalidArgument("column out of range");
  }
  if (column == key_column_) {
    return Status::InvalidArgument("cannot update the primary key in place");
  }
  FB_ASSIGN_OR_RETURN(auto row, GetRow(key));
  if (!row.has_value()) return Status::NotFound("row " + key.ToString());
  (*row)[column] = value;
  return UpsertRow(*row);
}

StatusOr<FTable> FTable::AddColumn(const std::string& name,
                                   const std::string& default_value) const {
  for (const auto& c : columns_) {
    if (c == name) return Status::AlreadyExists("column " + name);
  }
  std::vector<std::string> new_columns = columns_;
  new_columns.push_back(name);
  FB_ASSIGN_OR_RETURN(
      FMap new_rows,
      RewriteRows([&](std::vector<Slice>* cells) {
        cells->push_back(default_value);
      }));
  return WriteHeader(const_cast<ChunkStore*>(store_), std::move(new_columns),
                     key_column_, new_rows);
}

StatusOr<FTable> FTable::DropColumn(size_t column) const {
  if (column >= columns_.size()) {
    return Status::InvalidArgument("column out of range");
  }
  if (column == key_column_) {
    return Status::InvalidArgument("cannot drop the primary-key column");
  }
  std::vector<std::string> new_columns = columns_;
  new_columns.erase(new_columns.begin() + column);
  const size_t new_key_column =
      key_column_ > column ? key_column_ - 1 : key_column_;
  FB_ASSIGN_OR_RETURN(
      FMap new_rows,
      RewriteRows([&](std::vector<Slice>* cells) {
        cells->erase(cells->begin() + column);
      }));
  return WriteHeader(const_cast<ChunkStore*>(store_), std::move(new_columns),
                     new_key_column, new_rows);
}

StatusOr<FMap> FTable::RewriteRows(
    const std::function<void(std::vector<Slice>* cells)>& rewrite) const {
  // Rows arrive in ascending key order, so every row streams straight into
  // one bulk build: O(N), bit-identical to building the new rows from
  // scratch.
  TreeBuilder builder(const_cast<ChunkStore*>(store_), ChunkType::kMapLeaf,
                      TreeConfig::ForEntries());
  std::vector<Slice> cells;
  std::string encoded, entry;
  FB_RETURN_IF_ERROR(
      WalkRows([&](Slice key, std::span<const Slice> row) -> Status {
        cells.assign(row.begin(), row.end());
        rewrite(&cells);
        encoded.clear();
        for (const Slice& cell : cells) PutLengthPrefixed(&encoded, cell);
        entry.clear();
        AppendMapEntry(&entry, key, encoded);
        return builder.AddEntry(entry, key);
      }));
  FB_ASSIGN_OR_RETURN(TreeInfo info, builder.Finish());
  return FMap::Attach(store_, info.root);
}

StatusOr<FTable> FTable::RenameColumn(size_t column,
                                      const std::string& name) const {
  if (column >= columns_.size()) {
    return Status::InvalidArgument("column out of range");
  }
  for (const auto& c : columns_) {
    if (c == name) return Status::AlreadyExists("column " + name);
  }
  std::vector<std::string> new_columns = columns_;
  new_columns[column] = name;
  // Row encodings are schema-order positional: renaming rewrites only the
  // header chunk; the entire row tree is shared as-is.
  return WriteHeader(const_cast<ChunkStore*>(store_), std::move(new_columns),
                     key_column_, rows_);
}

// A run of the row walk: the leaf walk's run plus every row's SplitRow
// cells, split by the thread that claims the run.
struct FTable::RowRun : PosTree::LeafRun {
  std::vector<Slice> cells;  ///< ncols per entry, entry after entry
};

Status FTable::WalkRows(const RowVisitor& visit) const {
  const size_t ncols = columns_.size();
  return rows_.tree().WalkLeaves<RowRun>(
      {},
      [ncols](RowRun* run) {
        std::vector<Slice> row;
        for (size_t k = 0; k < run->entries.size(); ++k) {
          if (!SplitRow(run->entries[k].value, ncols, &row)) {
            run->status = Status::Corruption("malformed row for key " +
                                             run->entries[k].key.ToString());
            run->entries.resize(k);
            return;
          }
          run->cells.insert(run->cells.end(), row.begin(), row.end());
        }
      },
      [&](RowRun& run) -> Status {
        const std::span<const Slice> cells(run.cells);
        for (size_t k = 0; k < run.entries.size(); ++k) {
          FB_RETURN_IF_ERROR(
              visit(run.entries[k].key, cells.subspan(k * ncols, ncols)));
        }
        return Status::OK();
      });
}

Status FTable::Scan(const std::function<Status(
                        Slice key, const std::vector<std::string>&)>& fn) const {
  // One cells buffer for the whole scan: each row is assigned into the
  // strings the previous row left, so a row costs no allocation once the
  // strings have grown to fit.
  std::vector<std::string> cells(columns_.size());
  return WalkRows([&](Slice key, std::span<const Slice> views) -> Status {
    for (size_t c = 0; c < views.size(); ++c) {
      cells[c].assign(views[c].data(), views[c].size());
    }
    return fn(key, cells);
  });
}

StatusOr<std::vector<std::vector<std::string>>> FTable::Select(
    const std::function<bool(const std::vector<std::string>&)>& pred) const {
  std::vector<std::vector<std::string>> out;
  FB_RETURN_IF_ERROR(
      Scan([&](Slice, const std::vector<std::string>& cells) -> Status {
        if (pred(cells)) out.push_back(cells);
        return Status::OK();
      }));
  return out;
}

StatusOr<CsvDocument> FTable::ToCsv() const {
  CsvDocument doc;
  doc.header = columns_;
  FB_RETURN_IF_ERROR(
      Scan([&](Slice, const std::vector<std::string>& cells) -> Status {
        doc.rows.push_back(cells);
        return Status::OK();
      }));
  return doc;
}

StatusOr<std::vector<RowDelta>> FTable::Diff(const FTable& other,
                                             DiffMetrics* metrics) const {
  if (columns_ != other.columns_ || key_column_ != other.key_column_) {
    return Status::InvalidArgument("schemas differ");
  }
  FB_ASSIGN_OR_RETURN(auto raw, rows_.Diff(other.rows_, metrics));
  std::vector<RowDelta> deltas;
  deltas.reserve(raw.size());
  const size_t ncols = columns_.size();
  for (const auto& d : raw) {
    RowDelta rd;
    rd.key = d.key;
    if (d.left.has_value()) {
      std::vector<std::string> cells;
      if (!DecodeRow(*d.left, ncols, &cells)) {
        return Status::Corruption("malformed row (left) " + d.key);
      }
      rd.left = std::move(cells);
    }
    if (d.right.has_value()) {
      std::vector<std::string> cells;
      if (!DecodeRow(*d.right, ncols, &cells)) {
        return Status::Corruption("malformed row (right) " + d.key);
      }
      rd.right = std::move(cells);
    }
    if (rd.left && rd.right) {
      for (size_t c = 0; c < ncols; ++c) {
        if ((*rd.left)[c] != (*rd.right)[c]) rd.changed_columns.push_back(c);
      }
    }
    deltas.push_back(std::move(rd));
  }
  return deltas;
}

StatusOr<FTable> FTable::Merge3(const FTable& base, const FTable& left,
                                const FTable& right, MergePolicy policy,
                                DiffMetrics* metrics) {
  if (base.columns_ != left.columns_ || base.columns_ != right.columns_ ||
      base.key_column_ != left.key_column_ ||
      base.key_column_ != right.key_column_) {
    return Status::InvalidArgument("schemas differ across merge inputs");
  }
  FB_ASSIGN_OR_RETURN(auto delta_left, base.Diff(left, metrics));
  FB_ASSIGN_OR_RETURN(auto delta_right, base.Diff(right, metrics));

  std::map<std::string, const RowDelta*> right_by_key;
  for (const auto& d : delta_right) right_by_key[d.key] = &d;

  const size_t ncols = base.columns_.size();
  std::vector<KeyedOp> ops;  // applied to the right row-map
  std::vector<std::string> conflicts;
  for (const auto& dl : delta_left) {
    auto it = right_by_key.find(dl.key);
    if (it == right_by_key.end()) {
      // Only left touched the row.
      ops.push_back(KeyedOp{dl.key, dl.right.has_value()
                                        ? std::optional<std::string>(
                                              EncodeRow(*dl.right))
                                        : std::nullopt});
      continue;
    }
    const RowDelta& dr = *it->second;
    if (dl.right == dr.right) continue;  // both sides agree
    // Column-level refinement: both modified the row (vs base). If they
    // changed disjoint column sets, combine cell-wise.
    if (dl.left && dl.right && dr.right) {
      std::vector<std::string> combined = *dl.left;  // base row
      bool cell_conflict = false;
      for (size_t c = 0; c < ncols; ++c) {
        const bool lc = (*dl.right)[c] != (*dl.left)[c];
        const bool rc = (*dr.right)[c] != (*dl.left)[c];
        if (lc && rc && (*dl.right)[c] != (*dr.right)[c]) {
          cell_conflict = true;
          break;
        }
        if (lc) combined[c] = (*dl.right)[c];
        else if (rc) combined[c] = (*dr.right)[c];
      }
      if (!cell_conflict) {
        ops.push_back(KeyedOp{dl.key, EncodeRow(combined)});
        continue;
      }
    }
    conflicts.push_back(dl.key);
    switch (policy) {
      case MergePolicy::kStrict:
        break;  // fail after collecting all conflicts
      case MergePolicy::kPreferLeft:
        ops.push_back(KeyedOp{dl.key, dl.right.has_value()
                                          ? std::optional<std::string>(
                                                EncodeRow(*dl.right))
                                          : std::nullopt});
        break;
      case MergePolicy::kPreferRight:
        break;  // right's edit already present
    }
  }
  if (policy == MergePolicy::kStrict && !conflicts.empty()) {
    std::string keys;
    for (size_t i = 0; i < conflicts.size() && i < 8; ++i) {
      if (i) keys += ", ";
      keys += conflicts[i];
    }
    return Status::MergeConflict("conflicting rows: " + keys);
  }
  FB_ASSIGN_OR_RETURN(FMap merged_rows, right.rows_.Apply(std::move(ops)));
  return right.WithRows(merged_rows);
}

Status FTable::Validate() const { return Verify(store_, id_); }

Status FTable::Verify(const ChunkStore* store, const Hash256& id) {
  FB_ASSIGN_OR_RETURN(Chunk header, store->Get(id));
  if (header.hash() != id) {
    return Status::Corruption("table header tampered");
  }
  FB_ASSIGN_OR_RETURN(FTable table, Parse(store, id, header));
  const size_t ncols = table.columns_.size();
  // Rows are checked inside the tree's validation pass; only the key cell
  // is compared, so no cell is copied.
  std::vector<Slice> cells;
  return table.rows_.tree().Validate([&](const EntryView& row) -> Status {
    if (!SplitRow(row.value, ncols, &cells)) {
      return Status::Corruption("malformed row for key " + row.key.ToString());
    }
    if (cells[table.key_column_] != row.key) {
      return Status::Corruption("row key does not match primary-key cell");
    }
    return Status::OK();
  });
}

}  // namespace forkbase
