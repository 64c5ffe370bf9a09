(** SARIF 2.1.0 export of lint diagnostics ({!Lint.diag}), for CI
    annotation and artifact upload.

    The protocol model has no file/line coordinates, so each result's
    location is the logical artifact analyzed ([algo:<name>] or
    [protocol:<compact form>]) and the witness path becomes a SARIF
    code flow — one thread-flow location per step.  Severities map
    [Error]→[error], [Warning]→[warning], [Info]→[note]. *)

(** Pretty-printed SARIF document (what [sa_run analyze --sarif FILE]
    writes). *)
val to_string : tool_version:string -> (string * Lint.diag) list -> string
