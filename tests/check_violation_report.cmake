# Validates violation reports written by `cloudwf-lint --report` against the
# schema of CheckReport::to_json (src/check/violation.hpp, version 1):
#
#   {"checker": "cloudwf-invariants", "version": 1, "ok": bool,
#    "checks_run": int >= 0, "violations": [{"code", "subject", "message",
#    "expected", "actual"}, ...]}
#
# "ok" must agree with the violations array being empty, checks_run must be
# at least the number of violations, and every code must be an
# InvariantCode enumerator, read from violation.hpp so the list lives once.
#
# Usage: cmake -DREPORTS="a.json;b.json" -DHEADER=violation.hpp -P <this file>

cmake_minimum_required(VERSION 3.19)  # string(JSON), if(IN_LIST)

file(STRINGS "${HEADER}" enum_lines REGEX "^  [a-z_]+, +///")
set(codes "")
foreach(line IN LISTS enum_lines)
  string(REGEX REPLACE "^  ([a-z_]+),.*" "\\1" code "${line}")
  list(APPEND codes "${code}")
endforeach()
if(NOT codes)
  message(FATAL_ERROR "no InvariantCode enumerators found in ${HEADER}")
endif()

set(errors "")
macro(fail msg)
  list(APPEND errors "${report}: ${msg}")
endmacro()

foreach(report IN LISTS REPORTS)
  if(NOT EXISTS "${report}")
    message(FATAL_ERROR "missing report ${report}")
  endif()
  file(READ "${report}" doc)
  string(JSON top ERROR_VARIABLE err TYPE "${doc}")
  if(err OR NOT top STREQUAL "OBJECT")
    fail("document must be a JSON object")
    continue()
  endif()

  string(JSON checker ERROR_VARIABLE err GET "${doc}" checker)
  if(err OR NOT checker STREQUAL "cloudwf-invariants")
    fail("'checker' must be 'cloudwf-invariants', got '${checker}'")
  endif()
  string(JSON version ERROR_VARIABLE err GET "${doc}" version)
  if(err OR NOT version STREQUAL "1")
    fail("'version' must be 1, got '${version}'")
  endif()
  string(JSON ok_type ERROR_VARIABLE err TYPE "${doc}" ok)
  if(err OR NOT ok_type STREQUAL "BOOLEAN")
    fail("'ok' must be a bool")
  endif()
  string(JSON checks_run ERROR_VARIABLE err GET "${doc}" checks_run)
  if(err OR NOT checks_run MATCHES "^[0-9]+$")
    fail("'checks_run' must be a non-negative integer, got '${checks_run}'")
    set(checks_run "")
  endif()
  string(JSON vtype ERROR_VARIABLE err TYPE "${doc}" violations)
  if(err OR NOT vtype STREQUAL "ARRAY")
    fail("'violations' must be an array")
    continue()
  endif()
  string(JSON count LENGTH "${doc}" violations)

  if(ok_type STREQUAL "BOOLEAN")
    string(JSON ok GET "${doc}" ok)
    if((ok AND count GREATER 0) OR (NOT ok AND count EQUAL 0))
      fail("'ok' is ${ok} but there are ${count} violations")
    endif()
  endif()
  if(NOT checks_run STREQUAL "" AND checks_run LESS count)
    fail("checks_run=${checks_run} < ${count} violations")
  endif()

  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON code ERROR_VARIABLE err GET "${doc}" violations ${i} code)
      if(err OR NOT code IN_LIST codes)
        fail("violation ${i}: unknown code '${code}'")
      endif()
      foreach(key subject message)
        string(JSON t ERROR_VARIABLE err TYPE "${doc}" violations ${i} ${key})
        if(err OR NOT t STREQUAL "STRING")
          fail("violation ${i}: '${key}' must be a string")
        endif()
      endforeach()
      foreach(key expected actual)
        string(JSON t ERROR_VARIABLE err TYPE "${doc}" violations ${i} ${key})
        if(err OR NOT t STREQUAL "NUMBER")
          fail("violation ${i}: '${key}' must be a number")
        endif()
      endforeach()
    endforeach()
  endif()
endforeach()

if(errors)
  list(JOIN errors "\n" text)
  message(FATAL_ERROR "${text}")
endif()
