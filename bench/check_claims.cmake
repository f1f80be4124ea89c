# ctest claims_golden: runs DRIVER (rsets_claims) and requires its output
# to equal GOLDEN byte for byte, and its exit status to be 0 (every row
# valid, every per-machine peak within S). On a mismatch it prints the diff
# (< golden, > this build); OUT keeps this build's output for re-recording.
execute_process(COMMAND "${DRIVER}" OUTPUT_FILE "${OUT}"
                ERROR_VARIABLE err RESULT_VARIABLE rc)
file(READ "${GOLDEN}" golden)
file(READ "${OUT}" out)
if(NOT out STREQUAL golden)
  execute_process(COMMAND diff "${GOLDEN}" "${OUT}")
  message(FATAL_ERROR "claims_golden: rsets_claims output differs from "
          "${GOLDEN}. If the move is meant, re-record it with "
          "rsets_claims > bench/claims.golden.jsonl and name the moved rows.")
endif()
if(NOT rc EQUAL 0)
  # The driver names each failed row on stderr; its log lines are noise.
  string(REGEX MATCHALL "rsets_claims: [^\n]*" failed "${err}")
  string(REPLACE ";" "\n" failed "${failed}")
  message(FATAL_ERROR "claims_golden: rsets_claims exited ${rc}\n${failed}")
endif()
