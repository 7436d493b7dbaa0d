let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        Some (String.trim (really_input_string ic (in_channel_length ic))))

let packed_ref ref_name =
  match read_file ".git/packed-refs" with
  | None -> None
  | Some text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ sha; r ] when r = ref_name -> Some sha
           | _ -> None)

let git_revision () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    let p = String.length prefix in
    if String.length head > p && String.sub head 0 p = prefix then begin
      let ref_name = String.sub head p (String.length head - p) in
      match read_file (Filename.concat ".git" ref_name) with
      | Some sha -> sha
      | None -> Option.value (packed_ref ref_name) ~default:"unknown"
    end
    else head

let json ~workload ~seed ~seconds ~trace ~config =
  let open Obs.Json_out in
  Obj
    [ ("git_revision", Str (git_revision ()));
      ("ocaml_version", Str Sys.ocaml_version);
      ("flambda", Bool Build_info.flambda);
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("recommended_domains", Int (Harness.Throughput.recommended_domains ()));
      ("workload", Str workload); ("seed", Int seed); ("seconds", Int seconds);
      ("trace", Bool trace);
      ("config_hash", Str (Digest.to_hex (Digest.string config)));
      ("config", Str config) ]
