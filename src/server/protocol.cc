#include "server/protocol.h"

#include <utility>

#include "util/json.h"

namespace ucqn {

namespace {

// Appends `tuples` as an array of rows. Answers are ground: constants
// and the distinguished null (Ex. 7's unknown values), which maps to JSON
// null so clients need no sentinel convention.
void AppendTupleSet(std::string* out, const std::set<Tuple>& tuples) {
  out->push_back('[');
  bool first_row = true;
  for (const Tuple& tuple : tuples) {
    if (!first_row) out->append(", ");
    first_row = false;
    out->push_back('[');
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) out->append(", ");
      if (tuple[i].IsNull()) {
        out->append("null");
      } else {
        AppendJsonQuoted(out, tuple[i].name());
      }
    }
    out->push_back(']');
  }
  out->push_back(']');
}

bool JsonToTupleSet(const JsonValue& rows, std::set<Tuple>* out,
                    std::string* error) {
  if (!rows.is_array()) {
    *error = "expected an array of tuples";
    return false;
  }
  for (const JsonValue& row : rows.items()) {
    if (!row.is_array()) {
      *error = "expected a tuple array";
      return false;
    }
    Tuple tuple;
    for (const JsonValue& cell : row.items()) {
      if (cell.is_null()) {
        tuple.push_back(Term::Null());
      } else if (cell.is_string()) {
        tuple.push_back(Term::Constant(cell.AsString()));
      } else {
        *error = "tuple cells must be strings or null";
        return false;
      }
    }
    out->insert(std::move(tuple));
  }
  return true;
}

// Same cell convention as JsonToTupleSet, but order-preserving: delta
// batches are lists (deletes apply before inserts within a batch, and
// clients may care about a stable echo), not sets.
bool JsonToTupleList(const JsonValue& rows, std::vector<Tuple>* out,
                     std::string* error) {
  if (!rows.is_array()) {
    *error = "expected an array of tuples";
    return false;
  }
  for (const JsonValue& row : rows.items()) {
    if (!row.is_array()) {
      *error = "expected a tuple array";
      return false;
    }
    Tuple tuple;
    for (const JsonValue& cell : row.items()) {
      if (cell.is_null()) {
        tuple.push_back(Term::Null());
      } else if (cell.is_string()) {
        tuple.push_back(Term::Constant(cell.AsString()));
      } else {
        *error = "tuple cells must be strings or null";
        return false;
      }
    }
    out->push_back(std::move(tuple));
  }
  return true;
}

}  // namespace

std::optional<ServiceRequest> ParseServiceRequest(const std::string& line,
                                                  std::string* error) {
  std::string parse_error;
  std::optional<JsonValue> json = ParseJson(line, &parse_error);
  auto fail = [&](const std::string& why) -> std::optional<ServiceRequest> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!json) return fail("malformed request: " + parse_error);
  if (!json->is_object()) return fail("request must be a JSON object");

  ServiceRequest request;
  const std::string op = json->GetString("op", "query");
  if (op == "query") {
    request.op = ServiceRequest::Op::kQuery;
  } else if (op == "stats") {
    request.op = ServiceRequest::Op::kStats;
  } else if (op == "invalidate") {
    request.op = ServiceRequest::Op::kInvalidate;
  } else if (op == "snapshot") {
    request.op = ServiceRequest::Op::kSnapshot;
  } else if (op == "delta") {
    request.op = ServiceRequest::Op::kDelta;
  } else if (op == "answers") {
    request.op = ServiceRequest::Op::kAnswers;
  } else {
    return fail("unknown op \"" + op + "\"");
  }
  request.id = json->GetString("id");
  request.tenant = json->GetString("tenant", "default");
  if (request.tenant.empty()) request.tenant = "default";
  request.query = json->GetString("query");
  request.relation = json->GetString("relation");
  const double max_calls = json->GetNumber("max_calls", 0.0);
  if (max_calls < 0) return fail("max_calls must be non-negative");
  request.max_calls = static_cast<std::uint64_t>(max_calls);
  request.include_answers = json->GetBool("answers", true);
  request.standing = json->GetBool("standing", false);
  if (request.op == ServiceRequest::Op::kQuery && request.query.empty()) {
    return fail("query op without a \"query\" field");
  }
  if (request.op == ServiceRequest::Op::kDelta) {
    if (request.relation.empty()) {
      return fail("delta op without a \"relation\" field");
    }
    std::string tuple_error;
    const JsonValue* inserts = json->Find("insert");
    if (inserts != nullptr &&
        !JsonToTupleList(*inserts, &request.insert_tuples, &tuple_error)) {
      return fail("bad insert set: " + tuple_error);
    }
    const JsonValue* deletes = json->Find("delete");
    if (deletes != nullptr &&
        !JsonToTupleList(*deletes, &request.delete_tuples, &tuple_error)) {
      return fail("bad delete set: " + tuple_error);
    }
    if (request.insert_tuples.empty() && request.delete_tuples.empty()) {
      return fail("delta op without \"insert\" or \"delete\" tuples");
    }
  }
  if (request.op == ServiceRequest::Op::kAnswers && request.id.empty()) {
    return fail("answers op without an \"id\" field");
  }
  return request;
}

const char* ServiceResponse::StatusWord(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kShed: return "shed";
    case Status::kDraining: return "draining";
    case Status::kQuotaRefused: return "quota";
  }
  return "error";
}

std::string ServiceResponse::ToJsonLine() const {
  // Written straight into one buffer. Member order and number format are
  // part of the wire format; server_protocol_test pins the bytes.
  std::string out = "{";
  auto key = [&out](const char* name) {
    if (out.size() > 1) out.append(", ");
    out.push_back('"');
    out.append(name);
    out.append("\": ");
  };
  auto count = [&](const char* name, std::uint64_t value) {
    key(name);
    out.append(std::to_string(value));
  };
  if (!id.empty()) {
    key("id");
    AppendJsonQuoted(&out, id);
  }
  if (!tenant.empty()) {
    key("tenant");
    AppendJsonQuoted(&out, tenant);
  }
  key("status");
  AppendJsonQuoted(&out, StatusWord(status));
  if (status != Status::kOk) {
    key("error");
    AppendJsonQuoted(&out, error);
  } else if (!payload_json.empty()) {
    // Admin payloads (cache/stats exports) are already JSON; splice the
    // text in verbatim rather than re-modelling it.
    key("payload");
    out.append(payload_json);
  } else {
    count("under_count", under.size());
    count("over_count", over.size());
    key("complete");
    out.append(complete ? "true" : "false");
    if (include_answers) {
      key("under");
      AppendTupleSet(&out, under);
      key("over");
      AppendTupleSet(&out, over);
    }
    count("physical_calls", physical_calls);
    count("cache_hits", cache_hits);
    count("cache_misses", cache_misses);
  }
  out.push_back('}');
  return out;
}

std::optional<ServiceResponse> ParseServiceResponse(const std::string& line,
                                                    std::string* error) {
  std::string parse_error;
  std::optional<JsonValue> json = ParseJson(line, &parse_error);
  auto fail = [&](const std::string& why) -> std::optional<ServiceResponse> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!json) return fail("malformed response: " + parse_error);
  if (!json->is_object()) return fail("response must be a JSON object");

  ServiceResponse response;
  response.id = json->GetString("id");
  response.tenant = json->GetString("tenant");
  const std::string status = json->GetString("status");
  if (status == "ok") {
    response.status = ServiceResponse::Status::kOk;
  } else if (status == "error") {
    response.status = ServiceResponse::Status::kError;
  } else if (status == "shed") {
    response.status = ServiceResponse::Status::kShed;
  } else if (status == "draining") {
    response.status = ServiceResponse::Status::kDraining;
  } else if (status == "quota") {
    response.status = ServiceResponse::Status::kQuotaRefused;
  } else {
    return fail("unknown status \"" + status + "\"");
  }
  response.error = json->GetString("error");
  response.complete = json->GetBool("complete");
  response.physical_calls =
      static_cast<std::uint64_t>(json->GetNumber("physical_calls"));
  response.cache_hits =
      static_cast<std::uint64_t>(json->GetNumber("cache_hits"));
  response.cache_misses =
      static_cast<std::uint64_t>(json->GetNumber("cache_misses"));
  std::string tuple_error;
  const JsonValue* under = json->Find("under");
  if (under != nullptr &&
      !JsonToTupleSet(*under, &response.under, &tuple_error)) {
    return fail("bad under set: " + tuple_error);
  }
  const JsonValue* over = json->Find("over");
  if (over != nullptr && !JsonToTupleSet(*over, &response.over, &tuple_error)) {
    return fail("bad over set: " + tuple_error);
  }
  response.include_answers = under != nullptr || over != nullptr;
  const JsonValue* payload = json->Find("payload");
  if (payload != nullptr) response.payload_json = payload->Dump();
  return response;
}

}  // namespace ucqn
