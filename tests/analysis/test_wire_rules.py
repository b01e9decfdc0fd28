"""RL-W* wire-contract rules: trigger and pass fixtures for each."""

from tests.analysis.conftest import findings_for

GOOD_PROTOCOL = """
METHODS = ("query", "stats")


def _handle_query(backend, params):
    \"\"\"Answer one localization query.

    Errors: 400, 404.
    \"\"\"
    if "site" not in params:
        raise ValueError("site is required")
    if params["site"] == "nowhere":
        raise KeyError("unknown site")
    return {"cell": 0}


def _handle_stats(backend, params):
    \"\"\"Serving counters.

    Errors: none.
    \"\"\"
    return {"served": 0}


_HANDLERS = {"query": _handle_query, "stats": _handle_stats}
"""


class TestHandlerErrorContract:
    RULE = "RL-W01"

    def test_conforming_protocol_passes(self):
        files = {"serve/protocol.py": GOOD_PROTOCOL}
        assert findings_for(files, self.RULE) == []

    def test_method_without_handler_flagged(self):
        findings = findings_for(
            {
                "serve/protocol.py": """
                METHODS = ("query", "stats")


                def _handle_query(backend, params):
                    \"\"\"Query.

                    Errors: none.
                    \"\"\"
                    return {}


                _HANDLERS = {"query": _handle_query}
                """
            },
            self.RULE,
        )
        assert [f.key for f in findings] == ["missing-handler:stats"]

    def test_handler_not_in_methods_flagged(self):
        findings = findings_for(
            {
                "serve/protocol.py": """
                METHODS = ("query",)


                def _handle_query(backend, params):
                    \"\"\"Query.

                    Errors: none.
                    \"\"\"
                    return {}


                def _handle_extra(backend, params):
                    \"\"\"Extra.

                    Errors: none.
                    \"\"\"
                    return {}


                _HANDLERS = {"query": _handle_query, "extra": _handle_extra}
                """
            },
            self.RULE,
        )
        assert [f.key for f in findings] == ["unlisted-method:extra"]

    def test_missing_errors_line_flagged(self):
        findings = findings_for(
            {
                "serve/protocol.py": """
                METHODS = ("query",)


                def _handle_query(backend, params):
                    \"\"\"Query with no declared contract.\"\"\"
                    return {}


                _HANDLERS = {"query": _handle_query}
                """
            },
            self.RULE,
        )
        assert [f.key for f in findings] == ["undeclared:query"]

    def test_status_outside_contract_table_flagged(self):
        findings = findings_for(
            {
                "serve/protocol.py": """
                METHODS = ("query",)


                def _handle_query(backend, params):
                    \"\"\"Query.

                    Errors: 400, 418.
                    \"\"\"
                    return {}


                _HANDLERS = {"query": _handle_query}
                """
            },
            self.RULE,
        )
        assert [f.key for f in findings] == ["bad-status:query"]

    def test_raise_without_declared_status_flagged(self):
        findings = findings_for(
            {
                "serve/protocol.py": """
                METHODS = ("query",)


                def _handle_query(backend, params):
                    \"\"\"Query.

                    Errors: 400.
                    \"\"\"
                    raise KeyError("unknown site")


                _HANDLERS = {"query": _handle_query}
                """
            },
            self.RULE,
        )
        assert [f.key for f in findings] == ["undeclared-status:query:404"]

    def test_raise_outside_contract_types_flagged(self):
        findings = findings_for(
            {
                "serve/protocol.py": """
                METHODS = ("query",)


                def _handle_query(backend, params):
                    \"\"\"Query.

                    Errors: 400.
                    \"\"\"
                    raise OSError("disk on fire")


                _HANDLERS = {"query": _handle_query}
                """
            },
            self.RULE,
        )
        assert [f.key for f in findings] == ["off-contract:query:OSError"]

    def test_helper_raises_are_expanded_one_level(self):
        findings = findings_for(
            {
                "serve/protocol.py": """
                METHODS = ("query",)


                def _require_site(params):
                    if "site" not in params:
                        raise KeyError("unknown site")
                    return params["site"]


                def _handle_query(backend, params):
                    \"\"\"Query.

                    Errors: 400.
                    \"\"\"
                    return {"site": _require_site(params)}


                _HANDLERS = {"query": _handle_query}
                """
            },
            self.RULE,
        )
        assert [f.key for f in findings] == ["undeclared-status:query:404"]
