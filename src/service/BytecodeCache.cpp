//===- service/BytecodeCache.cpp ------------------------------------------===//

#include "service/BytecodeCache.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace fs = std::filesystem;
using namespace virgil;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

void hashChunk(uint64_t &H, std::string_view Chunk) {
  H = fnv1a64(Chunk, H);
}

void hashU64(uint64_t &H, uint64_t V) {
  char Buf[8];
  for (int I = 0; I != 8; ++I)
    Buf[I] = (char)((V >> (8 * I)) & 0xFF);
  hashChunk(H, std::string_view(Buf, 8));
}

} // namespace

BytecodeCache::BytecodeCache(std::string Dir, uint32_t FormatVersion)
    : Dir(std::move(Dir)), Version(FormatVersion) {
  std::error_code Ec;
  fs::create_directories(this->Dir, Ec);
}

uint64_t BytecodeCache::keyFor(std::string_view Source,
                               const CompilerOptions &O,
                               uint32_t FormatVersion) {
  uint64_t H = fnv1a64("virgil-bytecode-cache");
  hashU64(H, FormatVersion);
  // Every option that changes the emitted module must feed the key:
  // the fixed pipeline switches here, the feature axes from their table.
  hashU64(H, (uint64_t)O.StopAfterLower << 0 | (uint64_t)O.Optimize << 1 |
                 (uint64_t)O.Verify << 2 | (uint64_t)O.Opt.Dce << 3 |
                 (uint64_t)O.Opt.Inline << 4 |
                 (uint64_t)O.Opt.Devirtualize << 5 |
                 (uint64_t)O.Opt.DeadFields << 6);
  for (const FeatureAxis &A : FeatureAxes)
    if (A.Key == AxisKey::Cache)
      hashU64(H, axisValue(A.Id, O));
  hashU64(H, O.Opt.Rounds);
  hashU64(H, O.Opt.InlineInstrLimit);
  hashU64(H, Source.size());
  hashChunk(H, Source);
  return H;
}

std::string BytecodeCache::entryPath(uint64_t Key) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.vbc",
                (unsigned long long)Key);
  return (fs::path(Dir) / Name).string();
}

std::unique_ptr<LoadedModule> BytecodeCache::load(uint64_t Key) {
  std::string Path = entryPath(Key);
  std::string Bytes;
  if (!readFile(Path, Bytes)) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++S.Misses;
    return nullptr;
  }
  std::string Error;
  auto L = deserializeModule(Bytes, Version, &Error);
  if (!L) {
    // Bad entry: delete it so the slot heals, then report a miss so
    // the caller recompiles.
    std::error_code Ec;
    fs::remove(Path, Ec);
    uint32_t Stale = 0;
    bool VersionStale =
        peekFormatVersion(Bytes, &Stale) && Stale != Version;
    std::lock_guard<std::mutex> Lock(Mu);
    ++S.Misses;
    if (VersionStale)
      ++S.VersionEvictions;
    else
      ++S.CorruptEvictions;
    return nullptr;
  }
  // Refresh the entry's mtime so capacity eviction sees it as
  // recently used (LRU approximation via filesystem timestamps).
  if (MaxBytes) {
    std::error_code Ec;
    fs::last_write_time(Path, fs::file_time_type::clock::now(), Ec);
  }
  std::lock_guard<std::mutex> Lock(Mu);
  ++S.Hits;
  return L;
}

bool BytecodeCache::store(uint64_t Key, const BcModule &M) {
  SerializeStats SS;
  std::string Bytes = serializeModule(M, Version, &SS);
  std::string Path = entryPath(Key);
  // Unique temp name per thread so concurrent stores of the same key
  // never interleave; rename makes the entry visible atomically.
  static std::atomic<uint64_t> Counter{0};
  std::string Tmp =
      Path + ".tmp" + std::to_string(Counter.fetch_add(1));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Bytes.data(), (std::streamsize)Bytes.size());
    if (!Out)
      return false;
  }
  std::error_code Ec;
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++S.Stores;
    S.SharedBodies += SS.SharedBodies;
    S.CacheBytesSaved += SS.BytesSaved;
  }
  if (MaxBytes)
    enforceMaxBytes();
  return true;
}

uint64_t BytecodeCache::diskBytes() const {
  uint64_t Total = 0;
  std::error_code Ec;
  for (const auto &Entry : fs::directory_iterator(Dir, Ec)) {
    if (!Entry.is_regular_file() || Entry.path().extension() != ".vbc")
      continue;
    std::error_code SzEc;
    uint64_t Sz = Entry.file_size(SzEc);
    if (!SzEc)
      Total += Sz;
  }
  return Total;
}

void BytecodeCache::enforceMaxBytes() {
  struct EntryInfo {
    fs::path Path;
    uint64_t Bytes;
    fs::file_time_type Mtime;
  };
  std::vector<EntryInfo> Entries;
  uint64_t Total = 0;
  std::error_code Ec;
  for (const auto &Entry : fs::directory_iterator(Dir, Ec)) {
    if (!Entry.is_regular_file() || Entry.path().extension() != ".vbc")
      continue;
    std::error_code InfoEc;
    uint64_t Sz = Entry.file_size(InfoEc);
    if (InfoEc)
      continue;
    auto Mtime = Entry.last_write_time(InfoEc);
    if (InfoEc)
      continue;
    Entries.push_back({Entry.path(), Sz, Mtime});
    Total += Sz;
  }
  if (Total <= MaxBytes)
    return;
  // Oldest mtime first = least recently used first (loads under a cap
  // refresh mtimes). Concurrent workers may race on the same victim;
  // fs::remove of a vanished file simply fails and is not counted.
  std::sort(Entries.begin(), Entries.end(),
            [](const EntryInfo &A, const EntryInfo &B) {
              return A.Mtime < B.Mtime;
            });
  uint64_t Evicted = 0;
  for (const EntryInfo &E : Entries) {
    if (Total <= MaxBytes)
      break;
    std::error_code RmEc;
    if (fs::remove(E.Path, RmEc) && !RmEc) {
      Total -= E.Bytes;
      ++Evicted;
    }
  }
  std::lock_guard<std::mutex> Lock(Mu);
  S.CapacityEvictions += Evicted;
}

size_t BytecodeCache::evictMismatched() {
  size_t Removed = 0;
  std::error_code Ec;
  for (const auto &Entry : fs::directory_iterator(Dir, Ec)) {
    if (!Entry.is_regular_file() || Entry.path().extension() != ".vbc")
      continue;
    std::string Bytes;
    uint32_t V = 0;
    bool Stale = !readFile(Entry.path().string(), Bytes) ||
                 !peekFormatVersion(Bytes, &V) || V != Version;
    if (Stale) {
      std::error_code RmEc;
      if (fs::remove(Entry.path(), RmEc))
        ++Removed;
    }
  }
  std::lock_guard<std::mutex> Lock(Mu);
  S.VersionEvictions += Removed;
  return Removed;
}

CacheStats BytecodeCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S;
}
