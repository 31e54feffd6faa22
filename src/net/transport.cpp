#include "net/transport.hpp"

#include "net/rpc.hpp"

namespace datablinder::net {

Bytes Endpoint::call(const std::string& method, const Bytes& wire_request) {
  return payload_or_throw(reply(method, send(method, wire_request)));
}

Response Endpoint::send(const std::string& method, const Bytes& wire_request) {
  channel_.transfer_request(wire_request.size(), method);
  // Both ends run in-process: the "cloud" executes here. The bytes still go
  // through full serialize/deserialize so nothing non-serializable can leak
  // across the trust boundary.
  return server_.dispatch(Request::deserialize(wire_request));
}

Response Endpoint::reply(const std::string& method, const Response& response) {
  const Bytes wire_response = response.serialize();
  channel_.transfer_response(wire_response.size(), method);
  return Response::deserialize(wire_response);
}

Bytes Endpoint::payload_or_throw(Response response) {
  if (!response.ok) throw Error(response.error, response.error_message);
  return std::move(response.payload);
}

}  // namespace datablinder::net
