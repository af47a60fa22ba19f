#include "migration/replication_log.h"

namespace bullfrog {

void EncodeMigrateBlob(std::string* out, MigrationStrategy strategy,
                       uint64_t granularity, const std::string& script) {
  out->push_back(static_cast<char>(strategy));
  codec::PutU64(out, granularity);
  codec::PutLenPrefixed(out, script);
}

bool DecodeMigrateBlob(const std::string& blob, MigrationStrategy* strategy,
                       uint64_t* granularity, std::string* script) {
  codec::ByteReader reader(blob);
  uint8_t s;
  if (!reader.GetU8(&s) || !reader.GetU64(granularity) ||
      !reader.GetLenPrefixed(script)) {
    return false;
  }
  *strategy = static_cast<MigrationStrategy>(s);
  return true;
}

void EncodeMigrateStartBlob(std::string* out, const std::string& plan_name) {
  codec::PutLenPrefixed(out, plan_name);
}

bool DecodeMigrateStartBlob(const std::string& blob, std::string* plan_name) {
  codec::ByteReader reader(blob);
  return reader.GetLenPrefixed(plan_name);
}

void EncodeMigrateAbortBlob(std::string* out, const std::string& plan_name,
                            const std::string& reason) {
  codec::PutLenPrefixed(out, plan_name);
  codec::PutLenPrefixed(out, reason);
}

bool DecodeMigrateAbortBlob(const std::string& blob, std::string* plan_name,
                            std::string* reason) {
  codec::ByteReader reader(blob);
  return reader.GetLenPrefixed(plan_name) && reader.GetLenPrefixed(reason);
}

void EncodeMigrateCompleteBlob(std::string* out, const std::string& plan_name,
                               const std::vector<std::string>& retire_tables) {
  codec::PutLenPrefixed(out, plan_name);
  codec::PutU32(out, static_cast<uint32_t>(retire_tables.size()));
  for (const std::string& t : retire_tables) codec::PutLenPrefixed(out, t);
}

bool DecodeMigrateCompleteBlob(const std::string& blob, std::string* plan_name,
                               std::vector<std::string>* retire_tables) {
  codec::ByteReader reader(blob);
  uint32_t n;
  if (!reader.GetLenPrefixed(plan_name) || !reader.GetU32(&n)) return false;
  retire_tables->clear();
  for (uint32_t i = 0; i < n; ++i) {
    std::string t;
    if (!reader.GetLenPrefixed(&t)) return false;
    retire_tables->push_back(std::move(t));
  }
  return true;
}

}  // namespace bullfrog
