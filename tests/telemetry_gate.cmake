# Live-telemetry round trip, run as `cmake -P` so it needs no shell.
#
# Inputs (all -D):
#   CLI       path to tricount_cli
#   TOP       path to tricount_top
#   WORK_DIR  scratch directory for the graph and the snapshot
#
# Generates rmat_s8, runs `tricount_cli count --flight-telemetry` at 4
# ranks (the capture session's publisher thread writes the snapshots and
# the final post-run one), then renders that final snapshot with
# `tricount_top --once`. Both must exit 0, every rank row must read phase
# "done", and the totals line must carry the triangle count the CLI
# printed.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(GRAPH ${WORK_DIR}/rmat_s8.mtx)
set(SNAPSHOT ${WORK_DIR}/live.json)
set(RANKS 4)

execute_process(
  COMMAND ${CLI} generate --type rmat --scale 8 --edge-factor 8 --seed 1
          --out ${GRAPH}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "telemetry_gate: graph generation failed (${status})")
endif()

execute_process(
  COMMAND ${CLI} count --file ${GRAPH} --ranks ${RANKS}
          --flight-telemetry ${SNAPSHOT}
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE cli_output
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "telemetry_gate: tricount_cli count exited ${status}")
endif()
string(REGEX MATCH "triangles: ([0-9]+)" _ ${cli_output})
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "telemetry_gate: no triangle count in:\n${cli_output}")
endif()
set(EXPECTED ${CMAKE_MATCH_1})

execute_process(
  COMMAND ${TOP} --file ${SNAPSHOT} --once
  OUTPUT_VARIABLE table
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "telemetry_gate: tricount_top exited ${status}")
endif()

# Rank rows start with the rank number and then the phase column.
string(REGEX MATCHALL "\n *[0-9]+ +[a-z]+ " rows "\n${table}")
list(LENGTH rows n_rows)
if(NOT n_rows EQUAL RANKS)
  message(FATAL_ERROR
          "telemetry_gate: expected ${RANKS} rank rows, saw ${n_rows}:\n"
          "${table}")
endif()
foreach(row IN LISTS rows)
  if(NOT row MATCHES " done $")
    message(FATAL_ERROR
            "telemetry_gate: a rank did not finish at phase done:\n${table}")
  endif()
endforeach()

if(NOT table MATCHES "totals: ${EXPECTED} triangles,")
  message(FATAL_ERROR
          "telemetry_gate: totals line does not carry the CLI count "
          "${EXPECTED}:\n${table}")
endif()
message(STATUS
        "telemetry_gate: OK (${RANKS} ranks done, ${EXPECTED} triangles)")
