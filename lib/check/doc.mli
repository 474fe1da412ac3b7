(** Odoc-build stand-in: structural validation of doc comments.

    The container has no [odoc] to render the API docs; this pass of
    [respctl analyze] catches the mistakes an odoc build would reject
    (or silently swallow) in the [@raise] contracts that the effect
    analysis leans on: a tag line whose tag odoc does not know (the
    [@raises] typo turns a documented raise into prose), a [@raise]
    without a capitalized exception name, and a doc comment that never
    closes. Tags are only recognized at the start of a line, matching
    odoc's block-tag grammar, so an [@@] inside an inline code span is
    never misread as a tag. *)

val rules : Finding.rule list
(** The three doc rules, all errors. *)

val check : file:string -> Srclint.lexed -> Finding.t list
(** Validates the doc comments of one lexed file, read from its
    {!Srclint.comment} list; [file] is used for positions only. *)
