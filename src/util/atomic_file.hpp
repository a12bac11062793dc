// Crash-safe file writes: publish-by-rename.
//
// A file written in place can be left truncated by a crash, an OOM kill or
// a Ctrl-C between open() and the final flush. Every durable artifact in
// this repository (CSV tables, store entries, .cctrace traces) therefore
// goes through the same protocol: write the full content to a temp file
// beside the target (unique_tmp_path), fsync the data, rename(2) over the
// final name, and fsync the directory so the rename itself survives a
// power cut. Readers either see the old complete file or the new complete
// file — never a prefix — and concurrent writers of one path never share
// a temp file: the last rename wins whole.
#pragma once

#include <string>

namespace afs {

/// A temp-file name beside `final_path` that no other writer uses:
/// `<final_path>.tmp.<pid>.<thread>.<counter>`, unique across processes,
/// threads and calls.
std::string unique_tmp_path(const std::string& final_path);

/// Writes `content` to `path` via the tmp+fsync+rename protocol above,
/// unless `path` already holds exactly `content` (then it is left as it
/// is). Parent directories are created as needed. Throws std::runtime_error
/// (with errno context) on any I/O failure; the temp file is unlinked on
/// the failure path so retries start clean.
void write_file_atomic(const std::string& path, const std::string& content);

/// Publishes an already-written temp file: fsyncs `tmp_path`, renames it
/// to `final_path`, fsyncs the parent directory. Used by streaming writers
/// (e.g. the .cctrace sink) that cannot buffer their whole output.
/// Throws std::runtime_error on failure, leaving `tmp_path` in place.
void commit_file_atomic(const std::string& tmp_path,
                        const std::string& final_path);

}  // namespace afs
